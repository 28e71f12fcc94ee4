//! Spans recorded from the benchmark's side of each layer boundary. They
//! are held in memory and written out once, when the run ends.

use crate::workload::OpResult;
use std::fmt::Write as _;
use std::time::Instant;

/// Operations whose rank-level spans are written out. The small-message
/// workload runs thousands of traced operations per run; their runner and
/// session spans are all kept, and the rank detail of the first few
/// hundred is enough to see where the time goes.
const RANK_DETAIL_OPS: u64 = 256;

/// One timed interval.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    rank: Option<usize>,
    start: Instant,
    end: Instant,
}

/// The span store of one run.
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// An empty store; span times are written relative to `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            list: Vec::new(),
        }
    }

    /// Records a span and returns its id (ids start at 1; parent 0 is the
    /// run itself).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        rank: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.list.len() as u64 + 1;
        self.list.push(Span {
            id,
            parent,
            name,
            op,
            rank,
            start,
            end,
        });
        id
    }

    /// Records the runner call of operation `op` and, below it for the
    /// first `RANK_DETAIL_OPS` operations, each rank's closure with its
    /// collective and verify spans.
    pub fn add_op(&mut self, name: &'static str, parent: u64, op: u64, r: &OpResult) -> u64 {
        let run = self.add(name, parent, op, None, r.run_start, r.run_end);
        if op >= RANK_DETAIL_OPS {
            return run;
        }
        for t in &r.ranks {
            let rank = Some(t.rank);
            let closure = self.add("rank", run, op, rank, t.entry, t.exit);
            self.add("collective", closure, op, rank, t.coll_start, t.coll_end);
            self.add("verify", closure, op, rank, t.coll_end, t.verify_end);
        }
        run
    }

    /// Writes every span as one JSON object per line after a header line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut out = String::with_capacity(96 * (self.list.len() + 1));
        out.push_str(header);
        out.push('\n');
        for s in &self.list {
            let rank = s.rank.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"rank\":{rank},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent,
                s.name,
                s.op,
                us(s.start),
                us(s.end)
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
