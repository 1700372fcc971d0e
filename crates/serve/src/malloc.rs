//! Two calls into glibc's allocator that keep a server's resident memory
//! at what it uses, and no-ops off glibc.
//!
//! glibc malloc keeps freed memory resident in two ways that a server
//! process hits:
//!
//! * every thread allocates from an arena of its own, and an arena keeps
//!   the pages it frees until asked to give them back;
//! * freeing a block of 128 KiB or more — one epoch's relation copy or
//!   universal relation — raises the size below which blocks come from
//!   an arena instead of a mapping of their own to that block's size,
//!   and the free space an arena keeps to twice that. Each later epoch's
//!   large blocks then stay resident in every worker's arena after they
//!   are freed.
//!
//! [`pin_thresholds`] (at server start) keeps both sizes at glibc's
//! defaults, so large blocks keep their own mapping and go back to the
//! OS when freed; [`release_freed_pages`] (at server stop) hands back
//! what the stopped threads' arenas kept.

/// Keep the size from which glibc maps a block on its own, and the free
/// space an arena keeps, at their 128 KiB defaults. Setting them turns
/// off glibc's raising of them.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_thresholds() {
    // The workspace is zero-dependency, so `libc` is out; declare the
    // glibc symbol needed.
    #[allow(unsafe_code)]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes no pointers; it sets one allocator
        // parameter under the allocator's own lock, from any thread.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, 128 * 1024);
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Hand the free pages of every glibc arena back to the OS.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_freed_pages() {
    #[allow(unsafe_code)]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only returns free
        // memory of glibc's own arenas to the OS, under their locks; it
        // may be called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// No-op off glibc.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_thresholds() {}

/// No-op off glibc.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_freed_pages() {}
