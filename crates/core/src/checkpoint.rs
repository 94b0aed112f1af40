//! The Checkpointing Stack.
//!
//! Checkpoints of the architectural register file are taken during the
//! Analyze stage (Section 3.2 of the paper). The D-KIP needs at least one
//! checkpoint in flight whenever low-locality instructions exist, so that a
//! misprediction or exception resolved in the Memory Processor can be
//! recovered from. A checkpoint can be released once every low-locality
//! instruction belonging to its *epoch* (the instructions analysed between
//! it and the next checkpoint) has completed.

use std::collections::VecDeque;

/// One checkpoint epoch: its id and how many of its low-locality
/// instructions are still outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Epoch {
    id: u64,
    outstanding: u64,
}

/// The stack of in-flight checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStack {
    capacity: usize,
    epochs: VecDeque<Epoch>,
    next_id: u64,
    taken: u64,
    recoveries: u64,
}

impl CheckpointStack {
    /// Creates a stack with room for `capacity` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "checkpoint stack capacity must be positive");
        CheckpointStack {
            capacity,
            epochs: VecDeque::new(),
            next_id: 0,
            taken: 0,
            recoveries: 0,
        }
    }

    /// Whether a new checkpoint can be taken.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.epochs.len() < self.capacity
    }

    /// Number of live checkpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether no checkpoints are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Total checkpoints ever taken.
    #[must_use]
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Total recoveries performed.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The epoch id of the most recent checkpoint, if any.
    #[must_use]
    pub fn current_epoch(&self) -> Option<u64> {
        self.epochs.back().map(|e| e.id)
    }

    /// Takes a checkpoint, returning its epoch id, or `None` if the stack
    /// is full (the Analyze stage must stall).
    pub fn take(&mut self) -> Option<u64> {
        if !self.has_space() {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.taken += 1;
        self.epochs.push_back(Epoch { id, outstanding: 0 });
        Some(id)
    }

    /// Registers a low-locality instruction belonging to epoch `epoch`.
    pub fn register_instruction(&mut self, epoch: u64) {
        if let Some(e) = self.epochs.iter_mut().find(|e| e.id == epoch) {
            e.outstanding += 1;
        }
    }

    /// Records the completion of a low-locality instruction of epoch
    /// `epoch`, then releases any leading checkpoints whose epochs have
    /// fully drained (a checkpoint is only released while a newer one
    /// exists, so there is always a recovery point for in-flight
    /// low-locality code).
    pub fn complete_instruction(&mut self, epoch: u64) {
        if let Some(e) = self.epochs.iter_mut().find(|e| e.id == epoch) {
            e.outstanding = e.outstanding.saturating_sub(1);
        }
        while self.epochs.len() > 1 && self.epochs.front().is_some_and(|e| e.outstanding == 0) {
            self.epochs.pop_front();
        }
    }

    /// Performs a recovery to the most recent checkpoint (counts it and
    /// keeps the stack intact — younger state simply does not exist in the
    /// trace-driven model because fetch stalled at the mispredicted branch).
    pub fn recover(&mut self) {
        self.recoveries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_register_complete_releases_drained_epochs() {
        let mut stack = CheckpointStack::new(4);
        let e0 = stack.take().unwrap();
        stack.register_instruction(e0);
        stack.register_instruction(e0);
        let e1 = stack.take().unwrap();
        stack.register_instruction(e1);
        assert_eq!(stack.len(), 2);

        stack.complete_instruction(e0);
        assert_eq!(
            stack.len(),
            2,
            "epoch 0 still has one outstanding instruction"
        );
        stack.complete_instruction(e0);
        assert_eq!(
            stack.len(),
            1,
            "epoch 0 drained and a newer checkpoint exists"
        );
        assert_eq!(stack.current_epoch(), Some(e1));
    }

    #[test]
    fn the_last_checkpoint_is_never_released() {
        let mut stack = CheckpointStack::new(2);
        let e0 = stack.take().unwrap();
        stack.register_instruction(e0);
        stack.complete_instruction(e0);
        assert_eq!(
            stack.len(),
            1,
            "a lone checkpoint stays as the recovery point"
        );
    }

    #[test]
    fn full_stack_refuses_new_checkpoints() {
        let mut stack = CheckpointStack::new(2);
        assert!(stack.take().is_some());
        assert!(stack.take().is_some());
        assert!(stack.take().is_none());
        assert_eq!(stack.taken(), 2);
        assert!(!stack.has_space());
    }

    #[test]
    fn recoveries_are_counted() {
        let mut stack = CheckpointStack::new(2);
        stack.take();
        stack.recover();
        stack.recover();
        assert_eq!(stack.recoveries(), 2);
    }
}
