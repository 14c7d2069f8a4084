//! Width resolution with the hardware width cached: `set_num_threads`,
//! then `IPT_THREADS`, then the hardware. The environment is read once
//! per process, so each case runs in a child process of this test
//! binary with its own environment.

use std::process::Command;

/// Which case a child process checks (unset in the parent).
const CASE: &str = "IPT_WIDTH_TEST_CASE";

fn hardware() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The override beats whatever the default is, and clearing it restores
/// the default, every time (the default is cached, the override not).
fn check_override_over(default: usize) {
    for _ in 0..3 {
        assert_eq!(ipt_pool::num_threads(), default);
        ipt_pool::set_num_threads(default + 5);
        assert_eq!(ipt_pool::num_threads(), default + 5);
        assert_eq!(ipt_pool::Pool::global().threads(), default + 5);
        ipt_pool::set_num_threads(0);
    }
    assert_eq!(ipt_pool::num_threads(), default);
}

#[test]
#[cfg_attr(miri, ignore = "spawns child processes")]
fn override_then_env_then_hardware() {
    match std::env::var(CASE).as_deref() {
        Ok("env") => return check_override_over(3),
        Ok("hardware") => return check_override_over(hardware()),
        _ => {}
    }
    for (case, env) in [("env", Some("3")), ("hardware", None)] {
        let mut child = Command::new(std::env::current_exe().unwrap());
        child
            .args([
                "--exact",
                "override_then_env_then_hardware",
                "--test-threads=1",
            ])
            .env(CASE, case);
        match env {
            Some(v) => child.env("IPT_THREADS", v),
            None => child.env_remove("IPT_THREADS"),
        };
        let out = child.output().unwrap();
        assert!(
            out.status.success(),
            "{case} case failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
