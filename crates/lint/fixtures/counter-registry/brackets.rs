//# path: crates/obs/src/fake_brackets.rs
// Fixture: brackets inside string, char, byte and raw-string literals,
// lifetimes, nested closures and a match arm block do not move which
// call holds a literal.

pub fn record<'a>(rec: &'a Recorder, label: &'a str) {
    let close = label == "}";
    rec.incr(if close { "comm/recv" } else { "not a name" }); //~ counter-registry
    rec.add("kfac/step", r#"(" [ {"#.len() as u64);
    rec.observe(b'[', "[not a name either"); //~ counter-registry
    let by_char = |c: char| match c {
        '(' => {
            rec.span("ctrl/decisions");
            rec.span("{ also not a name") //~ counter-registry
        }
        _ => rec.span("ctrl/decisions"),
    };
    let sizes = |xs: &[&'a str]| xs.iter().map(|x| { let s = "comm/not_registered"; s.len() + x.len() }).sum::<usize>(); //~ counter-registry
    by_char(')');
    helper(")", "{}");
}
