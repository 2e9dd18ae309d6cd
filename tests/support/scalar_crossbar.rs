//! The scalar iSLIP reference (test code).
//!
//! [`ScalarCrossbar`] is the pre-bitmask arbiter, kept as the
//! executable specification of the matching order: each grant/accept
//! phase walks port indices with an O(n) round-robin pointer scan and
//! every VOQ stores its cells by value. The production
//! [`crate::fabric::Crossbar`] replaces those walks with u64 word
//! bitmaps over the same by-value VOQs, and is contractually bound to
//! produce the *identical* (time, seq) match sequence — the
//! equivalence proptest in `tests/fabric_equivalence.rs` drives both
//! over random request matrices and pointer states and compares every
//! transferred cell and every pointer after every slot.

use dra::net::sar::Cell;
use std::collections::VecDeque;

/// The scalar-reference crossbar (see the module docs).
#[derive(Debug)]
pub struct ScalarCrossbar {
    n_ports: usize,
    voq: Vec<VecDeque<Cell>>,
    voq_capacity: usize,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    iterations: usize,
    queued_cells: usize,
    input_matched: Vec<usize>,
    output_matched: Vec<usize>,
    grants: Vec<usize>,
    transferred: Vec<Cell>,
}

impl ScalarCrossbar {
    /// Build a reference fabric (no plane model — the reference covers
    /// only the arbitration contract).
    pub fn new(n_ports: usize, voq_capacity: usize, iterations: usize) -> Self {
        assert!(n_ports > 0 && voq_capacity > 0 && iterations > 0);
        ScalarCrossbar {
            n_ports,
            voq: (0..n_ports * n_ports).map(|_| VecDeque::new()).collect(),
            voq_capacity,
            grant_ptr: vec![0; n_ports],
            accept_ptr: vec![0; n_ports],
            iterations,
            queued_cells: 0,
            input_matched: vec![usize::MAX; n_ports],
            output_matched: vec![usize::MAX; n_ports],
            grants: vec![usize::MAX; n_ports],
            transferred: Vec::new(),
        }
    }

    /// Cells currently queued.
    pub fn queued_cells(&self) -> usize {
        self.queued_cells
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued_cells == 0
    }

    /// The round-robin pointer state, `(grant, accept)`.
    pub fn pointers(&self) -> (&[usize], &[usize]) {
        (&self.grant_ptr, &self.accept_ptr)
    }

    /// Overwrite the round-robin pointer state (equivalence testing).
    pub fn set_pointers(&mut self, grant: &[usize], accept: &[usize]) {
        assert_eq!(grant.len(), self.n_ports);
        assert_eq!(accept.len(), self.n_ports);
        assert!(grant.iter().chain(accept).all(|&p| p < self.n_ports));
        self.grant_ptr.copy_from_slice(grant);
        self.accept_ptr.copy_from_slice(accept);
    }

    /// Enqueue a cell; handed back as `Err` when the VOQ is full or
    /// the address is out of range.
    pub fn enqueue(&mut self, cell: Cell) -> Result<(), Cell> {
        let (src, dst) = (cell.src_lc as usize, cell.dst_lc as usize);
        if src >= self.n_ports || dst >= self.n_ports {
            return Err(cell);
        }
        let idx = src * self.n_ports + dst;
        if self.voq[idx].len() >= self.voq_capacity {
            return Err(cell);
        }
        self.voq[idx].push_back(cell);
        self.queued_cells += 1;
        Ok(())
    }

    /// One slot of scalar iSLIP matching; returns the transferred
    /// cells (at most one per input and per output).
    // The grant/accept phases walk ports by index across four parallel
    // arrays; explicit indices beat zipped iterators for clarity here.
    #[allow(clippy::needless_range_loop)]
    pub fn schedule_slot(&mut self) -> &[Cell] {
        self.transferred.clear();
        if self.queued_cells == 0 {
            return &self.transferred;
        }
        let n = self.n_ports;
        self.input_matched.fill(usize::MAX); // input -> output
        self.output_matched.fill(usize::MAX); // output -> input

        for iter in 0..self.iterations {
            // Grant phase: each unmatched output picks, round-robin from
            // its pointer, among unmatched inputs with a cell for it.
            self.grants.fill(usize::MAX); // output -> input
            for out in 0..n {
                if self.output_matched[out] != usize::MAX {
                    continue;
                }
                let start = self.grant_ptr[out];
                for k in 0..n {
                    let mut input = start + k;
                    if input >= n {
                        input -= n;
                    }
                    if self.input_matched[input] == usize::MAX
                        && !self.voq[input * n + out].is_empty()
                    {
                        self.grants[out] = input;
                        break;
                    }
                }
            }
            // Accept phase: each input picks, round-robin from its
            // pointer, among outputs that granted to it. Only
            // first-iteration matches advance the pointers.
            let mut any_match = false;
            for input in 0..n {
                if self.input_matched[input] != usize::MAX {
                    continue;
                }
                let start = self.accept_ptr[input];
                for k in 0..n {
                    let mut out = start + k;
                    if out >= n {
                        out -= n;
                    }
                    if self.grants[out] == input {
                        self.input_matched[input] = out;
                        self.output_matched[out] = input;
                        any_match = true;
                        if iter == 0 {
                            let mut g = input + 1;
                            if g >= n {
                                g -= n;
                            }
                            let mut a = out + 1;
                            if a >= n {
                                a -= n;
                            }
                            self.grant_ptr[out] = g;
                            self.accept_ptr[input] = a;
                        }
                        break;
                    }
                }
            }
            if !any_match {
                break;
            }
        }

        for input in 0..n {
            let out = self.input_matched[input];
            if out != usize::MAX {
                let idx = input * n + out;
                if let Some(cell) = self.voq[idx].pop_front() {
                    self.queued_cells -= 1;
                    self.transferred.push(cell);
                }
            }
        }
        &self.transferred
    }
}
