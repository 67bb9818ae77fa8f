//! `scd` writing into a closed pipe ends the way `cat` and `grep` do:
//! killed by `SIGPIPE`, with no panic and no exit 101.

#[cfg(unix)]
#[test]
fn closed_stdout_ends_scd_by_sigpipe_not_a_panic() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Stdio};

    let (reader, writer) = std::io::pipe().expect("create a pipe");
    // The read end is closed before the child starts, so its first
    // write to stdout fails every time: no race with a slow reader.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_scd"))
        .args(["listing", "--vm", "lvm"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scd")
        .wait_with_output()
        .expect("wait for scd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "scd panicked on a closed stdout:\n{stderr}");
    assert_eq!(out.status.signal(), Some(13), "want death by SIGPIPE, got {:?}", out.status);
}
