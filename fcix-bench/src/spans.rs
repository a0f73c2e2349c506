//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls *into* the program's layers, from the
//! benchmark's own code; nothing inside the program is instrumented.
//! They stay in memory while the workload runs and are written once, as
//! JSON lines, when it ends. With recording off (the timed run) `span`
//! is a plain call: no clock reads, no allocation.

use crate::clock::{now_s, stopwatch};
use crate::stats::median;
use fci_obs::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One finished span: a named host-time interval with its parent.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the run; 0 is never used.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer boundary name (`sigma.apply`, `serve.job`, …).
    pub name: String,
    /// Serve job id shared by every span of one job.
    pub job: Option<String>,
    /// Host seconds since process start.
    pub start_s: f64,
    /// Host seconds since process start.
    pub end_s: f64,
}

impl Span {
    fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("id", JsonValue::Num(self.id as f64)),
            ("name", JsonValue::Str(self.name.clone())),
            ("start_s", JsonValue::Num(self.start_s)),
            ("end_s", JsonValue::Num(self.end_s)),
        ];
        if let Some(p) = self.parent {
            pairs.push(("parent", JsonValue::Num(p as f64)));
        }
        if let Some(j) = &self.job {
            pairs.push(("job", JsonValue::Str(j.clone())));
        }
        JsonValue::obj(pairs)
    }
}

/// Thread-safe span buffer shared by the workload's threads.
pub struct Spans {
    on: bool,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `on = false` makes every `span` a plain call.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span. `f` receives the span's id (0 when off) so
    /// it can open children.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        job: Option<&str>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_s = now_s();
        let r = f(id);
        let end_s = now_s();
        self.done.lock().expect("span buffer poisoned").push(Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name: name.to_string(),
            job: job.map(str::to_string),
            start_s,
            end_s,
        });
        r
    }

    /// Call `f` `repeats` times, each inside a span named `name`; return
    /// the last result and the median host seconds of the calls.
    pub fn median_of_calls<R>(
        &self,
        repeats: usize,
        name: &str,
        mut f: impl FnMut() -> R,
    ) -> (R, f64) {
        let mut times = Vec::with_capacity(repeats);
        let mut last = None;
        for _ in 0..repeats {
            let (r, dt) = stopwatch(|| self.span(name, None, None, |_| f()));
            times.push(dt);
            last = Some(r);
        }
        (last.expect("repeats > 0"), median(&times))
    }

    /// Every finished span, ordered by start time.
    pub fn finished(&self) -> Vec<Span> {
        let mut v = self.done.lock().expect("span buffer poisoned").clone();
        v.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
        v
    }

    /// Write every span as one JSON line each.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.finished() {
            text.push_str(&s.to_json().to_string());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_parents_jobs_and_order() {
        let rec = Spans::new(true);
        let inner = rec.span("outer", None, Some("job-1"), |id| {
            rec.span("inner", Some(id), Some("job-1"), |_| 7)
        });
        assert_eq!(inner, 7);
        let v = rec.finished();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].name, "outer");
        assert_eq!(v[1].parent, Some(v[0].id));
        assert!(v.iter().all(|s| s.job.as_deref() == Some("job-1")));

        let off = Spans::new(false);
        assert_eq!(off.span("x", None, None, |id| id), 0);
        assert!(off.finished().is_empty());
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let rec = Spans::new(true);
        rec.span("a", None, Some("j"), |_| ());
        let dir = std::env::temp_dir().join(format!("fcix-bench-spans-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        rec.write_jsonl(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        std::fs::remove_dir_all(&dir).ok();
        let v = JsonValue::parse(text.trim()).expect("valid JSON line");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("a"));
        assert_eq!(v.get("job").and_then(JsonValue::as_str), Some("j"));
        assert!(v.get("parent").is_none());
    }
}
