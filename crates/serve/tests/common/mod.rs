//! Shared by the integration tests that start and stop a server.

use std::sync::mpsc;
use std::time::Duration;

/// Runs `f` on a helper thread and fails the test if it has not
/// returned within `secs` seconds, so a lost wake-up in the server
/// fails the suite instead of stalling it. A panic in `f` fails the
/// test with that panic.
pub fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("not finished within {secs} s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().expect_err("the helper panicked"))
        }
    }
}
