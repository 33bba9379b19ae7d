//! Which CPU the product runs on, and how disturbed that CPU was.
//!
//! The vCPUs of a shared box are disturbed in two ways, each vCPU by
//! itself (README.md, "Noise"): whenever a neighbour's work lands on the
//! same core, code of the product's kind runs 1.4 to 2 times slower, for
//! seconds to minutes at a time; and now and then the host takes the
//! vCPU away altogether, which the kernel counts as stolen time. Three
//! things are done about it here:
//!
//! * every child of the product is started on the one CPU that is fastest
//!   at that moment and confined to it, and the harness's own threads (the
//!   clients and the appender) keep to the others, so the load generator
//!   and the program under test never share a CPU;
//! * every timed repetition is bracketed by two probes — a fixed scan of
//!   1.3 ms of CPU time, of the product's own kind of work — on the CPU
//!   it ran on, and the time stolen from that CPU meanwhile is read;
//! * a repetition's time, less what was stolen, is then divided by how
//!   much slower than the run's fastest probe its two probes were
//!   ([`Pace`]), which states it at the box's undisturbed speed.
//!
//! On a single CPU nothing is confined; the probes still run.

use std::cell::Cell;

/// A `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// CPU seconds the calling thread has run: stolen and preempted time is
/// not in it, so a probe timed with it reads how fast the CPU runs when
/// it runs.
fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec::default();
    // SAFETY: `time` is live, writable and laid out as clock_gettime(2)
    // expects on 64-bit Linux.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    time.sec as f64 + time.nsec as f64 / 1e9
}

/// Seconds the host has taken `cpu` away from this box while it had work,
/// since boot (the `steal` column of /proc/stat; 0 where the kernel keeps
/// none). Printed in clock ticks, so a difference is good to ± one tick.
fn stolen_s(cpu: usize) -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf(3) takes a name and returns a number.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let name = format!("cpu{cpu}");
    stat.lines()
        .filter_map(|line| line.strip_prefix(name.as_str())?.strip_prefix(' '))
        .find_map(|fields| fields.split_whitespace().nth(7)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / ticks_per_s)
}

/// The CPUs this process may run on, and the fastest probe seen on them.
pub struct Cpus {
    allowed: Vec<usize>,
    floor_s: Cell<f64>,
}

/// Where a repetition was started, and the state of that CPU just before.
pub struct Placed {
    cpu: usize,
    probe_s: f64,
    stolen_s: f64,
}

/// How disturbed the CPU was while a repetition ran on it.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Mean of the probes before and after, CPU seconds.
    probe_s: f64,
    /// Seconds the host took the CPU away in between.
    stolen_s: f64,
}

impl Pace {
    /// A wall time measured at this pace as it would have been on the
    /// undisturbed box, whose probe takes `floor_s`: less what was
    /// stolen, divided by how much slower the probes were.
    pub fn wall_at_full_speed(&self, wall_s: f64, floor_s: f64) -> f64 {
        // Stolen time is read in ticks; never let rounding take it all.
        let ran_s = (wall_s - self.stolen_s).max(wall_s * 0.05);
        self.cpu_at_full_speed(ran_s, floor_s)
    }

    /// The same for a CPU time, which holds no stolen time to begin with.
    pub fn cpu_at_full_speed(&self, cpu_s: f64, floor_s: f64) -> f64 {
        cpu_s * floor_s / self.probe_s
    }

    /// How many times slower than `floor_s` the probes were.
    pub fn slowdown(&self, floor_s: f64) -> f64 {
        self.probe_s / floor_s
    }
}

impl Cpus {
    pub fn detect() -> Cpus {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is live, writable and as long as the size passed.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        let mut allowed: Vec<usize> = (0..1024)
            .filter(|cpu| got == 0 && set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        if allowed.is_empty() {
            // Not told: treat the box as one CPU and confine nothing.
            allowed.push(0);
        }
        Cpus {
            allowed,
            floor_s: Cell::new(f64::INFINITY),
        }
    }

    /// Confine the calling thread, and what it spawns from now on, to
    /// `cpus` — unless there is only one CPU to begin with.
    fn confine(&self, cpus: impl Iterator<Item = usize>) {
        if self.allowed.len() < 2 {
            return;
        }
        let mut set: CpuSet = [0; 16];
        cpus.for_each(|cpu| set[cpu / 64] |= 1 << (cpu % 64));
        // SAFETY: `set` is live and as long as the size passed. A refusal
        // leaves the thread where it was, which only costs steadiness.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }

    fn confine_to_others(&self, cpu: usize) {
        self.confine(self.allowed.iter().copied().filter(|&other| other != cpu));
    }

    /// CPU seconds the probe takes on `cpu` right now: the faster of two
    /// goes.
    fn probe(&self, cpu: usize) -> f64 {
        self.confine(std::iter::once(cpu));
        let took = probe_once().min(probe_once());
        self.floor_s.set(self.floor_s.get().min(took));
        took
    }

    /// Run `start` with the calling thread — and so any child it spawns —
    /// confined to the CPU that is fastest right now; afterwards the
    /// calling thread keeps to the other CPUs.
    pub fn on_fastest<T>(&self, start: impl FnOnce() -> T) -> (T, Placed) {
        let (probe_s, cpu) = self
            .allowed
            .iter()
            .map(|&cpu| (self.probe(cpu), cpu))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one CPU");
        self.confine(std::iter::once(cpu));
        let placed = Placed {
            cpu,
            probe_s,
            stolen_s: stolen_s(cpu),
        };
        let started = start();
        self.confine_to_others(cpu);
        (started, placed)
    }

    /// Now that a repetition has ended, look again at the CPU it ran on.
    pub fn pace(&self, placed: &Placed) -> Pace {
        let stolen_s = stolen_s(placed.cpu) - placed.stolen_s;
        let after_s = self.probe(placed.cpu);
        self.confine_to_others(placed.cpu);
        Pace {
            probe_s: (placed.probe_s + after_s) / 2.0,
            stolen_s,
        }
    }

    /// The fastest probe of the run so far, CPU seconds: the box
    /// undisturbed.
    pub fn floor_s(&self) -> f64 {
        self.floor_s.get()
    }
}

/// The probe: a byte-at-a-time scan of 64 KiB of JSON-looking text, eight
/// times over, with a branch per byte and a table of counters. Plain
/// arithmetic would not do: a busy neighbour on the same core leaves a
/// chain of multiplications at full speed and slows only code that keeps
/// the core's front end busy, as the product's parsers do.
fn probe_once() -> f64 {
    let text = probe_text();
    let start_s = thread_cpu_s();
    let mut counts = [0u32; 256];
    let (mut depth, mut in_string, mut escaped) = (0i32, false, false);
    for _ in 0..8 {
        for &byte in text {
            if in_string {
                if escaped {
                    escaped = false;
                } else if byte == b'\\' {
                    escaped = true;
                } else if byte == b'"' {
                    in_string = false;
                }
                counts[byte as usize] += 1;
                continue;
            }
            match byte {
                b'"' => in_string = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b'0'..=b'9' => counts[(depth & 0xff) as usize] += u32::from(byte - b'0'),
                _ => {}
            }
        }
    }
    std::hint::black_box((counts, depth));
    thread_cpu_s() - start_s
}

/// The probe's input, made once.
fn probe_text() -> &'static [u8] {
    static TEXT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| {
        let mut text = Vec::with_capacity(1 << 16);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        while text.len() < 1 << 16 {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (x >> 29);
            let piece: &[u8] = match x >> 60 {
                0..=2 => br#"{"id":"#,
                3..=4 => br#""name":"al\"ice","#,
                5..=6 => b"[1,22,333],",
                7..=9 => br#""tags":{"a":null},"#,
                10..=12 => b"4096,",
                _ => b"}",
            };
            text.extend_from_slice(piece);
        }
        text
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_is_paced_by_the_probes_around_it() {
        let cpus = Cpus::detect();
        let ((), placed) = cpus.on_fastest(|| ());
        let pace = cpus.pace(&placed);
        assert!(pace.probe_s > 0.0 && pace.probe_s.is_finite());
        assert!(pace.stolen_s >= 0.0);
        // The floor is the fastest probe, so no pace lies below it.
        assert!(pace.slowdown(cpus.floor_s()) >= 1.0);
    }

    #[test]
    fn a_disturbed_time_is_brought_back_to_full_speed() {
        // The probes took twice the floor, and 0.2 s were stolen.
        let pace = Pace {
            probe_s: 2e-3,
            stolen_s: 0.2,
        };
        assert_eq!(pace.wall_at_full_speed(1.2, 1e-3), 0.5);
        assert_eq!(pace.cpu_at_full_speed(1.0, 1e-3), 0.5);
        // Undisturbed, a time stands as measured.
        let calm = Pace {
            probe_s: 1e-3,
            stolen_s: 0.0,
        };
        assert_eq!(calm.wall_at_full_speed(0.7, 1e-3), 0.7);
    }

    #[test]
    fn the_kernel_counts_stolen_time_per_cpu() {
        // Monotonic, and absent columns read as nothing stolen.
        assert!(stolen_s(0) >= 0.0);
        assert_eq!(stolen_s(100_000), 0.0);
    }
}
