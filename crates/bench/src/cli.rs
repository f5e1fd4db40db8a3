//! Argument parsing shared by the `bench`, `calibrate` and `fault-matrix`
//! binaries. A bad argument ends the process with exit status 2 and a
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
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if switches.contains(&arg.as_str()) {
            continue;
        }
        if !valued.contains(&arg.as_str()) {
            fail(&format!("unknown argument {arg:?}"));
        }
        if rest.next().is_none_or(|v| v.starts_with("--")) {
            fail(&format!("missing value for {arg}"));
        }
    }
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
