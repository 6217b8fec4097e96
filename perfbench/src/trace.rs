//! Spans, exact-count fingerprints and the small statistics helpers the
//! workloads share.
//!
//! Spans are recorded by the benchmark around its own calls into each layer's
//! public functions (the library itself carries no instrumentation). They are
//! kept in memory and written once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `layer.function`, its interval on the run's clock, the span
/// that caused it, and the client op it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Qualifier of calls the metrics tell apart (e.g. an `answer_batch` on a
    /// freshly published epoch vs. one on an epoch already answered).
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Times calls and, when enabled, records each as a [`Span`]. Timing is
/// always on (the client needs its own latencies); only the span recording
/// is switched by `--trace`.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<usize>,
    op: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            op: 0,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the client op id attached to the spans recorded from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` as span `name` (a child of the innermost open span) and
    /// returns its result with its wall-clock duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let index = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                name,
                tag,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(index);
        }
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if self.enabled {
            self.stack.pop();
            let span = &mut self.spans[index];
            span.start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Durations (seconds) of every recorded span named `name` with tag `tag`.
    pub fn durations(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(Span::secs)
            .collect()
    }

    /// Self time of every span: its duration minus what its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.secs();
            }
        }
        own
    }

    /// Self time per layer of every span that is a `client.op` span or lies
    /// under one, with the ops' total wall-clock and count.
    pub fn op_self_time_by_layer(&self) -> (BTreeMap<&'static str, f64>, f64, usize) {
        let own = self.self_times();
        let mut by_layer = BTreeMap::new();
        let (mut op_wall, mut ops) = (0.0, 0);
        for (i, span) in self.spans.iter().enumerate() {
            if self.in_op(i) {
                *by_layer.entry(span.layer()).or_default() += own[i];
            }
            if span.name == "client.op" {
                op_wall += span.secs();
                ops += 1;
            }
        }
        (by_layer, op_wall, ops)
    }

    fn in_op(&self, mut i: usize) -> bool {
        loop {
            if self.spans[i].name == "client.op" {
                return true;
            }
            match self.spans[i].parent {
                Some(parent) => i = parent,
                None => return false,
            }
        }
    }

    /// The spans as JSON lines, each tagged with the workload that ran them.
    pub fn write_jsonl(&self, workload: &str, out: &mut String) {
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.tag, span.start_ns, span.end_ns, span.op
            );
        }
    }
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated; `None` when
/// there are no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// FNV-1a-style mixing of 64-bit words: a digest of every answer or report of a run's
/// reference prefix, stable across processes and platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn text(&mut self, value: &str) {
        self.bytes(value.as_bytes());
    }

    pub fn bytes(&mut self, value: &[u8]) {
        self.word(value.len() as u64);
        for chunk in value.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }
}
