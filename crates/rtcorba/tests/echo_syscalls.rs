//! Syscall guard for an ORB echo: a loopback `CompadresClient` ↔
//! `CompadresServer` echo costs exactly two write-class syscalls and no
//! read-class one, at 64 B and at 64 KiB. The two writes are
//!
//! * the client's `writev` of the request;
//! * the worker's `writev` of the reply.
//!
//! The counts are `/proc/self/io`'s `syscw` and `syscr`, which count
//! the `read`/`write` family (`read`, `readv`, `write`, `writev`, …).
//! Sockets are read with `recv`, and `epoll_wait` and futex parks are
//! not in that family, so what the guard sees is every `writev` and
//! every hand-off through a file: a reply handed to the reactor
//! through an eventfd would add one write (the wake) and one read (the
//! drain), and a reply the socket refused would add the reactor's
//! `writev` that finishes it.
//!
//! One `#[test]` in this file on purpose: the counters cover the whole
//! process, and a second test thread would pollute them. Run it with
//! `--nocapture` to see the per-echo map.

use rtcorba::corb::{loopback_echo_pair, CompadresClient};

/// Write-class syscalls per echo: the client's and the worker's
/// `writev`.
const WRITES_PER_ECHO: u64 = 2;
/// Read-class syscalls per echo.
const READS_PER_ECHO: u64 = 0;

/// `(syscr, syscw)` of this process so far.
fn io_counts() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io")
        .expect("/proc/self/io must be readable: the syscall guard cannot run without it");
    let field = |name: &str| -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|value| value.trim().parse().ok())
            .unwrap_or_else(|| panic!("no `{name}` in /proc/self/io:\n{text}"))
    };
    (field("syscr:"), field("syscw:"))
}

/// Read- and write-class syscalls of `echoes` echoes of `payload`. A
/// reading's own syscalls land between its snapshot and the next one,
/// so the cost of one reading — two back-to-back readings apart — is
/// subtracted.
fn count(client: &CompadresClient, payload: &[u8], echoes: u64) -> (u64, u64) {
    let before = io_counts();
    for _ in 0..echoes {
        assert_eq!(client.invoke(b"echo", "echo", payload).unwrap(), payload);
    }
    let after = io_counts();
    let again = io_counts();
    let reads = (after.0 - before.0) - (again.0 - after.0);
    let writes = (after.1 - before.1) - (again.1 - after.1);
    (reads, writes)
}

#[test]
fn an_echo_costs_two_writes_and_no_read() {
    const WARM_UP: u64 = 100;
    const ECHOES: u64 = 1_000;

    let (_server, client) = loopback_echo_pair().unwrap();
    let mut map = String::new();
    let mut measured = Vec::new();
    for size in [64usize, 64 << 10] {
        let payload = vec![0x5A; size];
        count(&client, &payload, WARM_UP);
        let (reads, writes) = count(&client, &payload, ECHOES);
        map.push_str(&format!(
            "syscalls per {size}-byte ORB echo over {ECHOES} echoes:\n\
             {:>9.3}  write-class (client writev, worker writev)\n\
             {:>9.3}  read-class\n",
            writes as f64 / ECHOES as f64,
            reads as f64 / ECHOES as f64,
        ));
        measured.push((size, reads, writes));
    }
    print!("{map}");
    for (size, reads, writes) in measured {
        assert_eq!(
            (writes, reads),
            (WRITES_PER_ECHO * ECHOES, READS_PER_ECHO * ECHOES),
            "(write-class, read-class) syscalls of {ECHOES} {size}-byte echoes\n{map}"
        );
    }
}
