//! Core placement. The campaign's `append_tick` spawns one thread per
//! store shard on every tick and joins them; spread over every core, each
//! join waits for the slowest core, so a core the host takes away for a
//! moment stalls the whole loop. The benchmark therefore keeps its main
//! thread, and every thread it spawns, on the first core: the ingest
//! fan-out, and the closed-loop clients with their server, whose requests
//! and replies then never wait for the host to wake an idle core. Only
//! `serve_live`'s server and open-loop clients run on the other cores,
//! beside the ingest loop they contend with.

use std::sync::OnceLock;

/// A CPU set as the kernel passes it: 1,024 bits.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The split of the process's CPUs at start-up.
struct Split {
    main: Mask,
    serve: Mask,
}

fn split() -> Option<&'static Split> {
    static SPLIT: OnceLock<Option<Split>> = OnceLock::new();
    SPLIT
        .get_or_init(|| {
            let mut all: Mask = [0; 16];
            // SAFETY: `all` is a writable buffer of exactly the size passed.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), all.as_mut_ptr()) };
            if rc != 0 {
                return None;
            }
            let cpus: Vec<usize> = (0..1024)
                .filter(|&c| all[c / 64] >> (c % 64) & 1 == 1)
                .collect();
            // One core cannot be split: everything then shares it.
            let (&first, rest) = cpus.split_first()?;
            if rest.is_empty() {
                return None;
            }
            let mut main: Mask = [0; 16];
            main[first / 64] |= 1 << (first % 64);
            let mut serve = all;
            serve[first / 64] &= !(1 << (first % 64));
            Some(Split { main, serve })
        })
        .as_ref()
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid 0
    // is the calling thread. Best effort: a refusal leaves placement as is.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
}

/// Where the calling thread, and every thread it spawns from now on, runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Place {
    /// The first core: everything but `serve_live`'s serving side.
    Main,
    /// Every other core: the `serve_live` server and open-loop clients.
    Serve,
}

pub fn pin(place: Place) {
    if let Some(s) = split() {
        set(match place {
            Place::Main => &s.main,
            Place::Serve => &s.serve,
        });
    }
}

/// Cores in each place, for the run metadata: (main, serve); (0, 0) when
/// the process has one core and nothing is split.
pub fn counts() -> (u32, u32) {
    split().map_or((0, 0), |s| {
        let n = |m: &Mask| m.iter().map(|w| w.count_ones()).sum();
        (n(&s.main), n(&s.serve))
    })
}
