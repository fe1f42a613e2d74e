//! Spans recorded by the benchmark around its calls into each layer.
//! Kept in memory and written out once, when the traced leg ends.

use cbir_router::jsonmerge::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer. Spans of one replayed op share `op`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// The span list of one traced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span called `name`, a child of `parent`; returns
    /// the span's id and what `f` returned.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce(&mut Tracer, u32) -> T,
    ) -> (u32, T) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        let out = f(self, id);
        self.spans[id as usize].end_ns = self.now_ns();
        (id, out)
    }

    /// Record a span measured elsewhere (the load generator's samples),
    /// with times in nanoseconds since `base`.
    pub fn push(&mut self, name: &'static str, op: u32, base: Instant, start_ns: u64, end_ns: u64) {
        // `base` is later than `t0` for every caller; a negative offset
        // would only mean the span list was created after the phase.
        let shift = base.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: shift + start_ns,
            end_ns: shift + end_ns,
            parent: None,
            op,
        });
    }

    /// Duration of span `id` in microseconds.
    pub fn span_us(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Per span name: `(spans, total self time in ns)`, self time being a
    /// span's duration minus the part its children cover.
    pub fn self_time(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Mean self time of `name`'s spans in microseconds; `0` if none.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.self_time().get(name) {
            Some(&(n, ns)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let num = |v: u64| Json::Num(v as f64);
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::Obj(vec![
                ("id".into(), num(id as u64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| num(p.into())),
                ),
                ("op".into(), num(s.op.into())),
            ])
        });
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("spans".into(), Json::Arr(spans.collect())),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 0,
            },
            Span {
                name: "engine",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "engine",
                start_ns: 70,
                end_ns: 90,
                parent: Some(0),
                op: 0,
            },
        ];
        let st = t.self_time();
        assert_eq!(st["op"], (1, 20));
        assert_eq!(st["engine"], (2, 80));
        assert_eq!(t.mean_self_us("engine"), 0.04);
        assert_eq!(t.mean_self_us("absent"), 0.0);
    }

    #[test]
    fn span_nests_and_closes() {
        let mut t = Tracer::new();
        let (outer, inner) = t.span("outer", None, 7, |t, me| {
            t.span("inner", Some(me), 7, |_, _| ()).0
        });
        assert_eq!(t.spans[inner as usize].parent, Some(outer));
        assert!(t.spans[outer as usize].end_ns >= t.spans[inner as usize].end_ns);
        assert_eq!(t.spans[inner as usize].op, 7);
    }
}
