//! `perfbench-spawn REPORT PROGRAM [ARGS...]`: run PROGRAM to completion and
//! write its wall time and resource usage to REPORT as one JSON object.
//!
//! The benchmark harness is a Python process. A child it spawns directly
//! reports the interpreter's memory as its peak RSS, because Linux carries
//! the pre-exec address space's high-water mark into the child's
//! `ru_maxrss`. Spawned from this small helper instead, the child's
//! `wait4` rusage describes the child alone.

use std::process::{Command, ExitCode};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 / 1e6
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: perfbench-spawn REPORT PROGRAM [ARGS...]");
        return ExitCode::from(2);
    }
    let start = Instant::now();
    let child = match Command::new(&args[1]).args(&args[2..]).spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench-spawn: cannot run {}: {e}", args[1]);
            return ExitCode::from(127);
        }
    };
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` wait4 fills in; `pid` is our own
        // unreaped child, and `Child` never waits on it after this.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            eprintln!("perfbench-spawn: wait4: {err}");
            return ExitCode::from(2);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // WIFEXITED ? WEXITSTATUS : 128 + WTERMSIG, as a shell reports it
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    let report = format!(
        "{{\"wall_s\":{wall},\"utime_s\":{},\"stime_s\":{},\"maxrss_kib\":{},\"exit\":{code}}}\n",
        seconds(&usage.utime),
        seconds(&usage.stime),
        usage.maxrss,
    );
    if let Err(e) = std::fs::write(&args[0], report) {
        eprintln!("perfbench-spawn: writing {}: {e}", args[0]);
        return ExitCode::from(2);
    }
    ExitCode::from(u8::try_from(code).unwrap_or(255))
}
