//! `perfbench spawn`: run one command and report its host cost.
//!
//! The peak resident set comes from `wait4`.  On Linux a child's reported
//! peak starts at its parent's footprint at spawn time, so the command is
//! spawned from this small process rather than from the Python driver.

use std::fs::File;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

fn secs(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// Run `argv` with stdout and stderr appended to `log`; print one JSON
/// line with wall seconds, CPU seconds, peak RSS and the exit code
/// (negative: killed by that signal).
pub fn run(log: &str, argv: &[String]) -> Result<(), String> {
    let (program, args) = argv.split_first().ok_or("spawn needs a command")?;
    let out = File::options()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("cannot open log {log}: {e}"))?;
    let err = out.try_clone().map_err(|e| format!("log {log}: {e}"))?;
    let t0 = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        .spawn()
        .map_err(|e| format!("cannot start {program}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid for writes and sized for
        // the 64-bit Linux ABI; `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 on {program}: {e}"));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    // The child is reaped; dropping the handle only closes its pipes.
    drop(child);
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    println!(
        "{{\"wall_s\": {wall:.9}, \"cpu_s\": {:.6}, \"maxrss_kb\": {}, \"exit\": {exit}}}",
        secs(&usage.utime) + secs(&usage.stime),
        usage.maxrss_kb
    );
    Ok(())
}
