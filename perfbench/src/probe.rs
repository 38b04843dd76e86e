//! Bench-side fabric probe: counts the slots in which any link carried a
//! flit, so the idle-slot share is an exact count rather than an estimate.

use rxl_fabric::{LinkTraversalEvent, Probe};

/// Counts busy slots (slots with at least one link traversal).
#[derive(Clone, Copy, Debug, Default)]
pub struct SlotProbe {
    busy_slots: u64,
    last_busy: Option<u64>,
}

impl SlotProbe {
    /// Slots in which at least one flit crossed a link.
    pub fn busy_slots(&self) -> u64 {
        self.busy_slots
    }
}

impl Probe for SlotProbe {
    fn on_link_traversal(&mut self, ev: LinkTraversalEvent) {
        // The engine emits traversals slot by slot, so a slot is new exactly
        // when it is later than the last busy one.
        if self.last_busy.is_none_or(|s| ev.slot > s) {
            self.last_busy = Some(ev.slot);
            self.busy_slots += 1;
        }
    }
}
