//! The `serve`↔`tsdb` seam: a [`QueryBackend`] over `&Database` that
//! times every execution the server hands down.

use pmove_serve::{BackendExec, QueryBackend};
use pmove_tsdb::{Database, Query, TsdbError};
use std::cell::RefCell;
use std::time::Instant;

pub struct TimedBackend<'a> {
    db: &'a Database,
    /// Wall time of each execution, in microseconds.
    pub exec_us: RefCell<Vec<f64>>,
}

impl<'a> TimedBackend<'a> {
    pub fn new(db: &'a Database) -> Self {
        TimedBackend {
            db,
            exec_us: RefCell::new(Vec::new()),
        }
    }
}

impl QueryBackend for &TimedBackend<'_> {
    fn execute(&self, q: &Query) -> Result<BackendExec, TsdbError> {
        let t = Instant::now();
        let r = self.db.execute(q);
        self.exec_us
            .borrow_mut()
            .push(t.elapsed().as_secs_f64() * 1e6);
        r
    }
}
