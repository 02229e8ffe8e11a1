//! Code generators: render the abstract syntax in three concrete styles.
//!
//! - [`paper_style`] — the notation of Appendices C–E (`parfor`, `par`,
//!   guarded `if .. [] .. fi`, `send`/`receive`/`pass`/`load`/`recover`);
//! - [`occam_style`] — occam-like (`PAR`, `SEQ`, `!`/`?` channel
//!   operators), the paper's principal experimental target (Sec. 8);
//! - [`c_style`] — C with communication directives, the paper's second
//!   target (the Symult s2010 runs).
//!
//! These are textual back ends: Sec. 4's claim is that the abstract syntax
//! "is easily translated to any distributed programming language", and
//! the printers demonstrate three such translations from one tree.

use crate::syntax::{Program, Stmt};

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Printer {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn nested(&mut self, f: impl FnOnce(&mut Printer)) {
        self.indent += 1;
        f(self);
        self.indent -= 1;
    }
}

/// Render in the paper's own notation (Appendix C).
pub fn paper_style(p: &Program) -> String {
    let mut pr = Printer::new();
    pr.line(&format!("/* {} */", p.name));
    for s in &p.items {
        paper_stmt(&mut pr, s);
    }
    pr.out
}

fn paper_stmt(pr: &mut Printer, s: &Stmt) {
    match s {
        Stmt::Comment(c) => pr.line(&format!("/****** {c} ******/")),
        Stmt::ChanDecl { name, dims } => {
            let d: Vec<String> = dims.iter().map(|(lo, hi)| format!("{lo}..{hi}")).collect();
            pr.line(&format!("chan {}[{}]", name, d.join(", ")));
        }
        Stmt::IntDecl { names } => pr.line(&format!("int {}", names.join(", "))),
        Stmt::TupleDecl { arity, names } => {
            let tuple = vec!["int"; *arity].join(",");
            pr.line(&format!("({tuple}) {}", names.join(", ")));
        }
        Stmt::Par(body) => {
            pr.line("par");
            pr.nested(|pr| body.iter().for_each(|x| paper_stmt(pr, x)));
            pr.line("end par");
        }
        Stmt::Seq(body) => body.iter().for_each(|x| paper_stmt(pr, x)),
        Stmt::ParFor { var, lo, hi, body } => {
            pr.line(&format!("parfor {var} from {lo} to {hi} do"));
            pr.nested(|pr| body.iter().for_each(|x| paper_stmt(pr, x)));
            pr.line("end parfor");
        }
        Stmt::For { var, lo, hi, body } => {
            pr.line(&format!("for {var} from {lo} to {hi} do"));
            pr.nested(|pr| body.iter().for_each(|x| paper_stmt(pr, x)));
            pr.line("end for");
        }
        Stmt::AssignIf {
            target,
            arms,
            else_null,
        } => {
            pr.line(&format!("{target} :="));
            pr.nested(|pr| {
                for (i, (g, e)) in arms.iter().enumerate() {
                    let lead = if i == 0 { "if" } else { "[]" };
                    pr.line(&format!("{lead} {g}  ->  {e}"));
                }
                if *else_null {
                    pr.line("[] else -> null");
                }
                pr.line("fi");
            });
        }
        Stmt::Assign { target, value } => pr.line(&format!("{target} := {value}")),
        Stmt::SendRepeater {
            stream,
            first,
            last,
            inc,
            chan,
        } => {
            pr.line(&format!("send {stream} {{{first} {last} {inc}}} to {chan}"));
        }
        Stmt::RecvRepeater {
            stream,
            first,
            last,
            inc,
            chan,
        } => {
            pr.line(&format!(
                "receive {stream} {{{first} {last} {inc}}} from {chan}"
            ));
        }
        Stmt::Send { value, chan } => pr.line(&format!("send {value} to {chan}")),
        Stmt::Recv { var, chan } => pr.line(&format!("receive {var} from {chan}")),
        Stmt::Pass { stream, count } => pr.line(&format!("pass {stream}, {count}")),
        Stmt::Load { stream, count } => pr.line(&format!("load {stream}, {count}")),
        Stmt::Recover { stream, count } => pr.line(&format!("recover {stream}, {count}")),
        Stmt::Repeater {
            first,
            last,
            inc,
            body,
        } => {
            pr.line(&format!("{{{first} {last} {inc}}} :"));
            pr.nested(|pr| body.iter().for_each(|x| paper_stmt(pr, x)));
        }
        Stmt::IfStmt { arms, else_skip } => {
            for (i, (g, b)) in arms.iter().enumerate() {
                let lead = if i == 0 { "if" } else { "[]" };
                pr.line(&format!("{lead} {g} ->"));
                pr.nested(|pr| b.iter().for_each(|x| paper_stmt(pr, x)));
            }
            if *else_skip {
                pr.line("[] else -> skip");
            }
            pr.line("fi");
        }
        Stmt::Skip => pr.line("skip"),
    }
}

/// Render occam-like text: indentation-structured `PAR`/`SEQ`, `!`/`?`.
pub fn occam_style(p: &Program) -> String {
    let mut pr = Printer::new();
    pr.line(&format!("-- {} (occam-like rendering)", p.name));
    for s in &p.items {
        occam_stmt(&mut pr, s);
    }
    pr.out
}

fn occam_stmt(pr: &mut Printer, s: &Stmt) {
    match s {
        Stmt::Comment(c) => pr.line(&format!("-- {c}")),
        Stmt::ChanDecl { name, dims } => {
            let size: Vec<String> = dims
                .iter()
                .map(|(lo, hi)| format!("(({hi}) - ({lo}) + 1)"))
                .collect();
            pr.line(&format!("[{}]CHAN OF INT {} :", size.join("*"), name));
        }
        Stmt::IntDecl { names } => pr.line(&format!("INT {} :", names.join(", "))),
        Stmt::TupleDecl { arity, names } => {
            for n in names {
                pr.line(&format!("[{arity}]INT {n} :"));
            }
        }
        Stmt::Par(body) => {
            pr.line("PAR");
            pr.nested(|pr| body.iter().for_each(|x| occam_stmt(pr, x)));
        }
        Stmt::Seq(body) => {
            pr.line("SEQ");
            pr.nested(|pr| body.iter().for_each(|x| occam_stmt(pr, x)));
        }
        Stmt::ParFor { var, lo, hi, body } => {
            // occam counts loops by a base and a count (Sec. 7.2.2's
            // remark on eq. 4).
            pr.line(&format!("PAR {var} = ({lo}) FOR (({hi}) - ({lo}) + 1)"));
            pr.nested(|pr| body.iter().for_each(|x| occam_stmt(pr, x)));
        }
        Stmt::For { var, lo, hi, body } => {
            pr.line(&format!("SEQ {var} = ({lo}) FOR (({hi}) - ({lo}) + 1)"));
            pr.nested(|pr| body.iter().for_each(|x| occam_stmt(pr, x)));
        }
        Stmt::AssignIf {
            target,
            arms,
            else_null,
        } => {
            pr.line("IF");
            pr.nested(|pr| {
                for (g, e) in arms {
                    pr.line(&occam_guard(g));
                    pr.nested(|pr| pr.line(&format!("{target} := {e}")));
                }
                if *else_null {
                    pr.line("TRUE");
                    pr.nested(|pr| pr.line("SKIP  -- null process"));
                }
            });
        }
        Stmt::Assign { target, value } => pr.line(&format!("{target} := {value}")),
        Stmt::SendRepeater {
            stream,
            first,
            last,
            inc,
            chan,
        } => {
            pr.line(&format!(
                "-- repeater {{{first} {last} {inc}}} over elements of {stream}"
            ));
            pr.line(&format!(
                "{} ! {}.elements({first}, {last}, {inc})",
                occam_chan(chan),
                stream
            ));
        }
        Stmt::RecvRepeater {
            stream,
            first,
            last,
            inc,
            chan,
        } => {
            pr.line(&format!(
                "-- repeater {{{first} {last} {inc}}} over elements of {stream}"
            ));
            pr.line(&format!(
                "{} ? {}.elements({first}, {last}, {inc})",
                occam_chan(chan),
                stream
            ));
        }
        Stmt::Send { value, chan } => pr.line(&format!("{} ! {value}", occam_chan(chan))),
        Stmt::Recv { var, chan } => pr.line(&format!("{} ? {var}", occam_chan(chan))),
        Stmt::Pass { stream, count } => {
            pr.line(&format!("SEQ pass.{stream} = 0 FOR ({count})"));
            pr.nested(|pr| {
                pr.line("INT tmp :");
                pr.line("SEQ");
                pr.nested(|pr| {
                    pr.line(&format!("{stream}.in ? tmp"));
                    pr.line(&format!("{stream}.out ! tmp"));
                });
            });
        }
        Stmt::Load { stream, count } => {
            pr.line("SEQ");
            pr.nested(|pr| {
                pr.line(&format!("{stream}.in ? {stream}"));
                occam_stmt(
                    pr,
                    &Stmt::Pass {
                        stream: stream.clone(),
                        count: count.clone(),
                    },
                );
            });
        }
        Stmt::Recover { stream, count } => {
            pr.line("SEQ");
            pr.nested(|pr| {
                occam_stmt(
                    pr,
                    &Stmt::Pass {
                        stream: stream.clone(),
                        count: count.clone(),
                    },
                );
                pr.line(&format!("{stream}.out ! {stream}"));
            });
        }
        Stmt::Repeater {
            first,
            last,
            inc,
            body,
        } => {
            pr.line(&format!("-- repeater {{{first} {last} {inc}}}"));
            pr.line(&format!("SEQ rep = 0 FOR count({first}, {last}, {inc})"));
            pr.nested(|pr| {
                pr.line("SEQ");
                pr.nested(|pr| body.iter().for_each(|x| occam_stmt(pr, x)));
            });
        }
        Stmt::IfStmt { arms, else_skip } => {
            pr.line("IF");
            pr.nested(|pr| {
                for (g, b) in arms {
                    pr.line(&occam_guard(g));
                    pr.nested(|pr| {
                        pr.line("SEQ");
                        pr.nested(|pr| b.iter().for_each(|x| occam_stmt(pr, x)));
                    });
                }
                if *else_skip {
                    pr.line("TRUE");
                    pr.nested(|pr| pr.line("SKIP"));
                }
            });
        }
        Stmt::Skip => pr.line("SKIP"),
    }
}

fn occam_chan(chan: &str) -> String {
    // a_chan[col, row] -> a.chan[col][row]
    let c = chan.replace('_', ".");
    match c.split_once('[') {
        Some((base, rest)) => {
            let inner = rest.trim_end_matches(']');
            let idx: Vec<String> = inner
                .split(',')
                .map(|p| format!("[{}]", p.trim()))
                .collect();
            format!("{base}{}", idx.join(""))
        }
        None => c,
    }
}

fn occam_guard(g: &str) -> String {
    g.replace("  /\\  ", " AND ")
}

/// Render C-with-communication-directives text (the Symult s2010 style).
pub fn c_style(p: &Program) -> String {
    let mut pr = Printer::new();
    pr.line(&format!(
        "/* {} — C with communication directives */",
        p.name
    ));
    for s in &p.items {
        c_stmt(&mut pr, s);
    }
    pr.out
}

fn c_stmt(pr: &mut Printer, s: &Stmt) {
    match s {
        Stmt::Comment(c) => pr.line(&format!("/* {c} */")),
        Stmt::ChanDecl { name, dims } => {
            let d: Vec<String> = dims.iter().map(|(lo, hi)| format!("/*{lo}..{hi}*/")).collect();
            pr.line(&format!("channel_t {name}{};", d.join("")));
        }
        Stmt::IntDecl { names } => pr.line(&format!("long {};", names.join(", "))),
        Stmt::TupleDecl { arity, names } => {
            for n in names {
                pr.line(&format!("long {n}[{arity}];"));
            }
        }
        Stmt::Par(body) => {
            pr.line("PAR {");
            pr.nested(|pr| body.iter().for_each(|x| c_stmt(pr, x)));
            pr.line("}");
        }
        Stmt::Seq(body) => {
            pr.line("{");
            pr.nested(|pr| body.iter().for_each(|x| c_stmt(pr, x)));
            pr.line("}");
        }
        Stmt::ParFor { var, lo, hi, body } => {
            pr.line(&format!("PARFOR ({var} = {lo}; {var} <= {hi}; {var}++) {{"));
            pr.nested(|pr| body.iter().for_each(|x| c_stmt(pr, x)));
            pr.line("}");
        }
        Stmt::For { var, lo, hi, body } => {
            pr.line(&format!("for ({var} = {lo}; {var} <= {hi}; {var}++) {{"));
            pr.nested(|pr| body.iter().for_each(|x| c_stmt(pr, x)));
            pr.line("}");
        }
        Stmt::AssignIf { target, arms, else_null } => {
            for (i, (g, e)) in arms.iter().enumerate() {
                let kw = if i == 0 { "if" } else { "else if" };
                pr.line(&format!("{kw} ({}) {{ {target} = {e}; }}", c_guard(g)));
            }
            if *else_null {
                pr.line(&format!("else {{ /* null */ {target} = NULL_REPEATER; }}"));
            }
        }
        Stmt::Assign { target, value } => pr.line(&format!("{target} = {value};")),
        Stmt::SendRepeater { stream, first, last, inc, chan } => pr.line(&format!(
            "send_repeater({chan_fn}, {stream}, /*first*/ {first}, /*last*/ {last}, /*inc*/ {inc});",
            chan_fn = c_chan(chan)
        )),
        Stmt::RecvRepeater { stream, first, last, inc, chan } => pr.line(&format!(
            "recv_repeater({chan_fn}, {stream}, /*first*/ {first}, /*last*/ {last}, /*inc*/ {inc});",
            chan_fn = c_chan(chan)
        )),
        Stmt::Send { value, chan } => pr.line(&format!("csend({}, {value});", c_chan(chan))),
        Stmt::Recv { var, chan } => pr.line(&format!("{var} = crecv({});", c_chan(chan))),
        Stmt::Pass { stream, count } => pr.line(&format!("pass({stream}_in, {stream}_out, {count});")),
        Stmt::Load { stream, count } => {
            pr.line(&format!("{stream} = crecv({stream}_in);"));
            pr.line(&format!("pass({stream}_in, {stream}_out, {count});"));
        }
        Stmt::Recover { stream, count } => {
            pr.line(&format!("pass({stream}_in, {stream}_out, {count});"));
            pr.line(&format!("csend({stream}_out, {stream});"));
        }
        Stmt::Repeater { first, last, inc, body } => {
            pr.line(&format!(
                "for (REPEATER(x, {first}, {last}, {inc})) {{"
            ));
            pr.nested(|pr| body.iter().for_each(|x| c_stmt(pr, x)));
            pr.line("}");
        }
        Stmt::IfStmt { arms, else_skip } => {
            for (i, (g, b)) in arms.iter().enumerate() {
                let kw = if i == 0 { "if" } else { "else if" };
                pr.line(&format!("{kw} ({}) {{", c_guard(g)));
                pr.nested(|pr| b.iter().for_each(|x| c_stmt(pr, x)));
                pr.line("}");
            }
            if *else_skip {
                pr.line("else { /* skip */ }");
            }
        }
        Stmt::Skip => pr.line(";"),
    }
}

fn c_chan(chan: &str) -> String {
    // a_chan[col, row] -> CHAN(a_chan, col, row)
    match chan.split_once('[') {
        Some((base, rest)) => {
            format!("CHAN({}, {})", base, rest.trim_end_matches(']'))
        }
        None => chan.to_string(),
    }
}

fn c_guard(g: &str) -> String {
    // Break chained inequalities into && of pairs.
    let conj: Vec<String> = g
        .split("  /\\  ")
        .map(|chain| {
            let parts: Vec<&str> = chain.split(" <= ").collect();
            if parts.len() <= 2 {
                chain.replace(" not ", " !").to_string()
            } else {
                parts
                    .windows(2)
                    .map(|w| format!("({}) <= ({})", w[0], w[1]))
                    .collect::<Vec<_>>()
                    .join(" && ")
            }
        })
        .collect();
    conj.join(" && ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use systolic_core::{compile, Options};
    use systolic_synthesis::placement::paper;

    fn render_all(
        pair: (
            systolic_ir::SourceProgram,
            systolic_synthesis::SystolicArray,
        ),
    ) -> (String, String, String) {
        let (p, a) = pair;
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let prog = lower(&plan);
        (paper_style(&prog), occam_style(&prog), c_style(&prog))
    }

    #[test]
    fn d1_paper_text_contains_appendix_lines() {
        let (paper, occam, c) = render_all(paper::polyprod_d1());
        assert!(paper.contains("load a, n - col"));
        assert!(paper.contains("recover a, col"));
        assert!(paper.contains("pass c, col"));
        assert!(paper.contains("{(col, 0) (col, n) (0,1)} :"));
        assert!(paper.contains("c := c + a * b"));
        assert!(paper.contains("parfor col from 0 to n do"));
        assert!(occam.contains("PAR"));
        assert!(occam.contains("c := c + a * b"));
        assert!(c.contains("PARFOR (col = 0; col <= n; col++)"));
        assert!(c.contains("c = c + a * b;"));
    }

    #[test]
    fn e2_paper_text_has_null_alternatives() {
        let (paper, occam, c) = render_all(paper::matmul_e2());
        assert!(paper.contains("[] else -> null"));
        assert!(paper.contains("send c to c_chan[col - 1, row - 1]"));
        assert!(paper.contains("parfor col from -n to n do"));
        assert!(occam.contains("SKIP  -- null process"));
        assert!(c.contains("NULL_REPEATER"));
    }

    #[test]
    fn chan_name_translations() {
        assert_eq!(occam_chan("a_chan[col, row]"), "a.chan[col][row]");
        assert_eq!(c_chan("a_chan[col + 1]"), "CHAN(a_chan, col + 1)");
    }

    #[test]
    fn guard_translations() {
        assert_eq!(
            c_guard("0 <= col - n <= n  /\\  0 <= row <= n"),
            "(0) <= (col - n) && (col - n) <= (n) && (0) <= (row) && (row) <= (n)"
        );
    }

    #[test]
    fn occam_renders_pass_load_recover() {
        let prog = Program {
            name: "t".into(),
            items: vec![
                Stmt::Load {
                    stream: "a".into(),
                    count: "n - col".into(),
                },
                Stmt::Pass {
                    stream: "c".into(),
                    count: "col".into(),
                },
                Stmt::Recover {
                    stream: "a".into(),
                    count: "col".into(),
                },
                Stmt::Repeater {
                    first: "(col, 0)".into(),
                    last: "(col, n)".into(),
                    inc: "(0,1)".into(),
                    body: vec![Stmt::Assign {
                        target: "c".into(),
                        value: "c + a * b".into(),
                    }],
                },
            ],
        };
        let occam = occam_style(&prog);
        assert!(occam.contains("a.in ? a"), "load keeps the first element");
        assert!(occam.contains("SEQ pass.c = 0 FOR (col)"));
        assert!(occam.contains("a.out ! a"), "recover ejects the local");
        assert!(occam.contains("SEQ rep = 0 FOR count((col, 0), (col, n), (0,1))"));
        let c = c_style(&prog);
        assert!(c.contains("a = crecv(a_in);"));
        assert!(c.contains("pass(c_in, c_out, col);"));
        assert!(c.contains("csend(a_out, a);"));
    }

    #[test]
    fn seq_and_for_statements_render() {
        let prog = Program {
            name: "t".into(),
            items: vec![Stmt::Seq(vec![Stmt::For {
                var: "k".into(),
                lo: "0".into(),
                hi: "n".into(),
                body: vec![Stmt::Skip],
            }])],
        };
        assert!(paper_style(&prog).contains("for k from 0 to n do"));
        assert!(occam_style(&prog).contains("SEQ k = (0) FOR ((n) - (0) + 1)"));
        assert!(c_style(&prog).contains("for (k = 0; k <= n; k++) {"));
    }

    #[test]
    fn all_designs_render_nonempty_in_all_styles() {
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            let prog = lower(&plan);
            for (style, text) in [
                ("paper", paper_style(&prog)),
                ("occam", occam_style(&prog)),
                ("c", c_style(&prog)),
            ] {
                assert!(text.lines().count() > 30, "{label}/{style} too short");
            }
        }
    }
}
