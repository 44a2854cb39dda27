//! CPU placement. Every thread of a run — the client, the reactor, the
//! worker and the routing pool — runs on one CPU. On a virtual machine a
//! wake-up that crosses CPUs can halt and re-enter a virtual CPU, and how
//! often that happens changed from run to run by more than the effects the
//! benchmark has to see; on one CPU there is always a runnable thread while
//! requests are in flight. The run therefore measures single-core cost.

#![allow(unsafe_code)]

use std::io;

// The syscall surface, resolved from the libc `std` already links.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const WORDS: usize = 16;

/// The CPUs this thread may run on.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads it spawns later) to `cpu`.
fn to(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pins the whole process to the last CPU it may run on, before it starts
/// any thread. Returns that CPU, or `None` if the affinity could not be
/// read or set (the run then goes unpinned).
pub fn one_cpu() -> Option<usize> {
    let cpu = *allowed().last()?;
    to(cpu).ok().map(|()| cpu)
}
