// Seeded violation for L005: stdio in a library crate. The print lints
// are on here, as in every library crate root.
#![warn(clippy::print_stdout, clippy::print_stderr)]

#[expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "seeded: stdout and stderr in a library"
)]
pub fn report(n: usize) {
    println!("processed {n} rows");
    if n == 0 {
        eprintln!("nothing to do");
    }
}
