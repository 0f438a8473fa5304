//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (nothing inside the program is instrumented).
//! Every span carries the request id of the operation it belongs to and
//! the id of the span that caused it; the whole set is written out once,
//! when the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a request's root span.
    pub parent: u64,
    /// Request (operation) id shared by every span of one operation.
    pub req: u64,
    /// Layer, as `crate::module`.
    pub layer: &'static str,
    /// The public function called (or `request`/`iteration` for roots).
    pub call: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Thread-safe span store; `None`-valued tracers (untraced runs) record
/// nothing and cost one branch per call.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    enabled: bool,
}

/// An open span; finish it with [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    req: u64,
    layer: &'static str,
    call: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            enabled,
        }
    }

    pub fn begin(&self, req: u64, parent: u64, layer: &'static str, call: &'static str) -> Open {
        let id = if self.enabled {
            let mut spans = self.spans.lock().expect("span store poisoned");
            // Reserve the id now so children opened before this span ends
            // can name it as their parent.
            spans.push(Span {
                id: 0,
                parent,
                req,
                layer,
                call,
                start_us: 0.0,
                dur_us: -1.0,
            });
            spans.len() as u64
        } else {
            0
        };
        Open {
            id,
            parent,
            req,
            layer,
            call,
            start: Instant::now(),
        }
    }

    /// Closes `open`, returning its duration in milliseconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = Instant::now();
        let dur = end - open.start;
        if self.enabled {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans[open.id as usize - 1] = Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                layer: open.layer,
                call: open.call,
                start_us: (open.start - self.t0).as_secs_f64() * 1e6,
                dur_us: dur.as_secs_f64() * 1e6,
            };
        }
        dur.as_secs_f64() * 1e3
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &self,
        req: u64,
        parent: u64,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(req, parent, layer, call);
        let out = f();
        (out, self.end(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Summed self time per layer (a span's duration minus the part its
    /// children cover), in milliseconds, over closed spans.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans();
        let mut child_us = vec![0.0; spans.len() + 1];
        for s in spans.iter().filter(|s| s.dur_us >= 0.0 && s.parent > 0) {
            child_us[s.parent as usize] += s.dur_us;
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for s in spans.iter().filter(|s| s.dur_us >= 0.0) {
            let own = (s.dur_us - child_us[s.id as usize]).max(0.0) / 1e3;
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, v)) => *v += own,
                None => out.push((s.layer, own)),
            }
        }
        out
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = format!("{{{header}, \"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"layer\": \"{}\", \"call\": \"{}\", \
                 \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
                s.id, s.parent, s.req, s.layer, s.call, s.start_us, s.dur_us
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_link_to_parents_and_self_time_subtracts_them() {
        let t = Tracer::new(true);
        let root = t.begin(7, 0, "root", "request");
        let (_, _) = t.span(7, root.id, "child", "call", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.req == 7));
        let by_layer = t.self_ms_by_layer();
        let child = by_layer.iter().find(|(l, _)| *l == "child").unwrap().1;
        let root_self = by_layer.iter().find(|(l, _)| *l == "root").unwrap().1;
        assert!(child >= 2.0);
        assert!(root_self < child);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, ms) = t.span(1, 0, "x", "y", || 3);
        assert_eq!(v, 3);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
