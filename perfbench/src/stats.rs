//! Order statistics and the in-memory span recorder.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Exact nearest-rank percentile (`p` in `0..=100`) of `values`; 0 when
/// empty. The result is always one of the measured values.
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Reset the process's peak resident set to its current size, so the next
/// `peak_rss_mib` reading covers only what ran in between. The heap's free
/// pages go back to the kernel first: otherwise what the allocator kept
/// from earlier reps counts toward later ones, and a rep's peak depends on
/// its place in the run. Best effort: without the reset the reading covers
/// the whole process.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only releases free heap memory.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) since the last reset, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Process-wide span ids, so spans recorded on different threads can name
/// each other as parents and be merged by concatenation.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One timed call at a layer boundary. `parent` is 0 for a root span;
/// spans of one client request share `request` (0 = not a request).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span: `close` it to record its end.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    /// The span's id, for children to name as their parent (0 when the
    /// tracer is off).
    pub id: u64,
}

/// Spans kept in memory until the run ends. A tracer that is off records
/// nothing and costs one branch per call.
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread: same clock and switch, no spans.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.on)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        if !self.on {
            return Open {
                index: usize::MAX,
                id: 0,
            };
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open {
            index: self.spans.len() - 1,
            id,
        }
    }

    pub fn close(&mut self, open: Open) {
        if self.on {
            self.spans[open.index].end_ns = self.now_ns();
        }
    }

    /// Adopt the spans another thread recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write every span as one tab-separated line:
    /// `id parent request name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_measured_values() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(pct(&v, 50.0), 3.0);
        assert_eq!(pct(&v, 99.0), 5.0);
        assert_eq!(pct(&v, 0.0), 1.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(pct(&[], 50.0), 0.0);
    }

    #[test]
    fn children_name_their_parent_across_threads() {
        let mut root = Tracer::new(Instant::now(), true);
        let r = root.open("root", 0, 0);
        let mut child = root.fork();
        let c = child.open("child", r.id, 7);
        child.close(c);
        root.close(r);
        root.absorb(child);
        let spans = root.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut off = Tracer::new(Instant::now(), false);
        let o = off.open("x", 0, 0);
        off.close(o);
        assert!(off.spans().is_empty());
    }
}
