//! CPU placement and the host fingerprint.
//!
//! Left to the scheduler, a depth-1 round trip sometimes ran both ends on one
//! core (a context switch) and sometimes on two (a cross-core wake-up of an
//! idle virtual CPU, more than twice as slow and with a long tail), so read
//! latency changed from run to run. A pipelined client on a CPU of its own
//! suffered in slow spells of the host: its write p99 rose from 0.4 ms to as
//! much as 9 ms and its throughput halved. Sharing the server's CPU, the
//! same client reached about the same throughput in calm spells, with no
//! cross-CPU wake-up in any exchange. So the client and every server it
//! starts run on the first CPU this process may use.

use std::sync::OnceLock;

/// Words in the CPU mask passed to the kernel (room for 1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

fn pin(pid: u32, cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(pid, MASK_WORDS * 8, mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pinning pid {pid} to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[derive(Debug, Clone, Copy)]
struct Placement {
    /// CPUs the process could use before pinning.
    cores: usize,
    /// The CPU everything runs on, or `None` when the allowed set is
    /// unknown.
    cpu: Option<usize>,
}

static PLACEMENT: OnceLock<Placement> = OnceLock::new();

fn placement() -> Option<usize> {
    PLACEMENT.get().and_then(|p| p.cpu)
}

/// Pins this process to its CPU. Call once, before starting any child.
pub fn place() -> Result<(), String> {
    let allowed = allowed();
    let cpu = allowed.first().copied();
    if let Some(cpu) = cpu {
        pin(0, cpu)?;
    }
    PLACEMENT
        .set(Placement {
            cores: allowed.len(),
            cpu,
        })
        .map_err(|_| "CPU placement is decided once".to_string())
}

/// Moves a child process onto the client's CPU.
pub fn pin_child(pid: u32) -> Result<(), String> {
    match placement() {
        Some(cpu) => pin(pid, cpu),
        None => Ok(()),
    }
}

/// Cores, CPU model, kernel and the placement, as a JSON object.
pub fn host() -> String {
    let cores = PLACEMENT.get().map_or(0, |p| p.cores);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let placement = match placement() {
        Some(cpu) => format!("{{\"client\":{cpu},\"server\":{cpu}}}"),
        None => "null".into(),
    };
    format!(
        "{{\"cores\":{cores},\"cpu\":{},\"kernel\":{},\"cpus\":{placement}}}",
        crate::client::json_str(&model),
        crate::client::json_str(&kernel)
    )
}
