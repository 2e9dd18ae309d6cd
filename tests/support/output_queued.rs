//! An idealized output-queued fabric (test code): the comparison point
//! for the iSLIP-scheduled crossbar.
//!
//! Classic result: output queueing is the throughput/delay optimum but
//! needs N× internal speedup to move every arriving cell to its output
//! queue instantly; VOQ+iSLIP approximates it at speedup ~1–2. This
//! model grants the ideal: cells land in their output queue on enqueue
//! and each output drains one cell per slot.

use dra::net::sar::Cell;
use std::collections::VecDeque;

/// The output-queued fabric (see the module docs).
#[derive(Debug)]
pub struct OutputQueuedFabric {
    queues: Vec<VecDeque<Cell>>,
    capacity: usize,
    queued: usize,
    /// Cells drained in the most recent slot.
    transferred: Vec<Cell>,
}

impl OutputQueuedFabric {
    /// A fabric for `n_ports` with per-output queue `capacity`.
    pub fn new(n_ports: usize, capacity: usize) -> Self {
        assert!(n_ports > 0 && capacity > 0);
        OutputQueuedFabric {
            queues: (0..n_ports).map(|_| VecDeque::new()).collect(),
            capacity,
            queued: 0,
            transferred: Vec::with_capacity(n_ports),
        }
    }

    /// Cells queued across all outputs.
    pub fn queued_cells(&self) -> usize {
        self.queued
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Occupancy of one output queue.
    pub fn queue_len(&self, output: usize) -> usize {
        self.queues[output].len()
    }

    /// Enqueue straight into the destination's output queue; returns
    /// the cell on overflow or an out-of-range output.
    pub fn enqueue(&mut self, cell: Cell) -> Result<(), Cell> {
        match self.queues.get_mut(cell.dst_lc as usize) {
            Some(q) if q.len() < self.capacity => {
                q.push_back(cell);
                self.queued += 1;
                Ok(())
            }
            _ => Err(cell),
        }
    }

    /// One slot: every non-empty output transmits its head-of-line
    /// cell, in output order. The view is valid until the next call.
    pub fn schedule_slot(&mut self) -> &[Cell] {
        self.transferred.clear();
        for q in &mut self.queues {
            if let Some(cell) = q.pop_front() {
                self.transferred.push(cell);
            }
        }
        self.queued -= self.transferred.len();
        &self.transferred
    }
}
