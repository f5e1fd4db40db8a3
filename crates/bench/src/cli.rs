//! Argument parsing shared by the `bench`, `calibrate`, `fault-matrix`
//! and `figures` binaries. A bad argument ends the process with exit status 2 and a
//! message naming it: never a panic, and never a silent fall-back to a
//! default.

use std::str::FromStr;

/// Prints `msg` and exits 2.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Checks that `args` holds only the flags a command accepts: each of
/// `valued` followed by its value, each of `switches` alone. Exits 2
/// naming an unknown argument, or a valued flag whose value is missing
/// (absent, or another `--` flag).
pub fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) {
    if let Some(arg) = operands(args, valued, switches).first() {
        fail(&format!("unknown argument {arg:?}"));
    }
}

/// The operands in `args`, in order: every argument that is neither one
/// of the flags [`check_flags`] accepts nor a valued flag's value. Exits 2
/// as [`check_flags`] does on an unknown `--` flag or a missing value.
pub fn operands<'a>(args: &'a [String], valued: &[&str], switches: &[&str]) -> Vec<&'a str> {
    let mut found = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if switches.contains(&arg.as_str()) {
            continue;
        }
        if valued.contains(&arg.as_str()) {
            if rest.next().is_none_or(|v| v.starts_with("--")) {
                fail(&format!("missing value for {arg}"));
            }
        } else if arg.starts_with("--") {
            fail(&format!("unknown argument {arg:?}"));
        } else {
            found.push(arg.as_str());
        }
    }
    found
}

/// The value following `name` in `args`, if any.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

/// Parses `value`, the argument of `name`, and checks it with `valid`;
/// exits 2 naming `name` and the value when either fails.
pub fn parse_num<T: FromStr>(name: &str, value: &str, valid: impl Fn(&T) -> bool) -> T {
    match value.trim().parse::<T>() {
        Ok(x) if valid(&x) => x,
        _ => fail(&format!("bad value {value:?} for {name}")),
    }
}

/// The value of numeric flag `name`, if given, through [`parse_num`].
pub fn num_flag<T: FromStr>(args: &[String], name: &str, valid: impl Fn(&T) -> bool) -> Option<T> {
    flag(args, name).map(|s| parse_num(name, &s, valid))
}
