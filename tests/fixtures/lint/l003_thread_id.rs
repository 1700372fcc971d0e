// Seeded violation for L003: thread-identity logic — results must not
// depend on which worker ran.
pub fn worker_tag() -> String {
    #[expect(clippy::disallowed_methods, reason = "seeded: thread identity")]
    let id = std::thread::current().id();
    format!("{id:?}")
}
