//! Register renaming: map table, free list and physical-register ready
//! times.
//!
//! Each thread owns two instances — one for the integer registers (renamed
//! onto the AP's physical register file, 64 entries per thread in the
//! paper) and one for the floating-point registers (renamed onto the EP's
//! file, 96 entries per thread).

use serde::{Deserialize, Serialize};

/// A physical register identifier within one register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhysReg(pub u16);

/// The result of renaming a destination register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenameOutcome {
    /// The newly allocated physical register for the destination.
    pub new: PhysReg,
    /// The physical register previously mapped to the same architectural
    /// register. It must be freed when the renaming instruction graduates.
    pub previous: PhysReg,
}

/// Rename map + free list + ready times for one register file.
///
/// Cycle tracking uses absolute ready cycles: a register is *ready at cycle
/// `c`* when its recorded ready cycle is `<= c`. Registers whose producer
/// has not yet computed a completion time hold `u64::MAX`.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    num_arch: usize,
    map: Vec<PhysReg>,
    free: Vec<PhysReg>,
    ready_cycle: Vec<u64>,
}

impl RegisterFile {
    /// Creates a register file with `num_arch` architectural registers
    /// renamed onto `num_phys` physical registers. Initially every
    /// architectural register is mapped and ready at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `num_phys < num_arch` (every architectural register needs a
    /// committed physical home) or `num_arch == 0`.
    #[must_use]
    pub fn new(num_arch: usize, num_phys: usize) -> Self {
        assert!(num_arch > 0, "need at least one architectural register");
        assert!(
            num_phys >= num_arch,
            "need at least as many physical as architectural registers"
        );
        let map = (0..num_arch).map(|i| PhysReg(i as u16)).collect();
        let free = (num_arch..num_phys)
            .rev()
            .map(|i| PhysReg(i as u16))
            .collect();
        RegisterFile {
            num_arch,
            map,
            free,
            ready_cycle: vec![0; num_phys],
        }
    }

    /// Whether a destination can currently be renamed.
    #[must_use]
    pub fn can_rename(&self) -> bool {
        !self.free.is_empty()
    }

    /// Current physical mapping of an architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `arch` is out of range.
    #[must_use]
    pub fn lookup(&self, arch: usize) -> PhysReg {
        assert!(arch < self.num_arch, "architectural register out of range");
        self.map[arch]
    }

    /// Renames architectural register `arch` to a fresh physical register.
    /// The new register is marked not-ready (`u64::MAX`). Returns `None`
    /// when the free list is empty (dispatch must stall).
    ///
    /// # Panics
    ///
    /// Panics if `arch` is out of range.
    pub fn rename_dest(&mut self, arch: usize) -> Option<RenameOutcome> {
        assert!(arch < self.num_arch, "architectural register out of range");
        let new = self.free.pop()?;
        let previous = self.map[arch];
        self.map[arch] = new;
        self.ready_cycle[new.0 as usize] = u64::MAX;
        Some(RenameOutcome { new, previous })
    }

    /// Returns a physical register to the free list (called when the
    /// instruction that superseded its mapping graduates, or when a
    /// squashed instruction's allocation is rolled back).
    ///
    /// # Panics
    ///
    /// Panics if the register index is out of range or if the free list
    /// would overflow (double free).
    pub fn release(&mut self, reg: PhysReg) {
        let total_phys = self.ready_cycle.len();
        assert!((reg.0 as usize) < total_phys, "register out of range");
        assert!(
            self.free.len() < total_phys - self.num_arch,
            "free list overflow: double release of {reg:?}"
        );
        debug_assert!(!self.free.contains(&reg), "double release of {reg:?}");
        self.free.push(reg);
    }

    /// Records the cycle at which `reg` becomes ready.
    ///
    /// # Panics
    ///
    /// Panics if the register index is out of range.
    pub fn set_ready_cycle(&mut self, reg: PhysReg, cycle: u64) {
        self.ready_cycle[reg.0 as usize] = cycle;
    }

    /// The recorded ready cycle for `reg` (`u64::MAX` when unknown).
    #[must_use]
    pub fn ready_cycle(&self, reg: PhysReg) -> u64 {
        self.ready_cycle[reg.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_maps_arch_registers_ready() {
        let rf = RegisterFile::new(32, 64);
        assert_eq!(rf.ready_cycle.len(), 64);
        assert_eq!(rf.free.len(), 32);
        for i in 0..32 {
            assert_eq!(rf.lookup(i), PhysReg(i as u16));
            assert_eq!(rf.ready_cycle(rf.lookup(i)), 0);
        }
    }

    #[test]
    fn rename_allocates_and_marks_not_ready() {
        let mut rf = RegisterFile::new(32, 64);
        let out = rf.rename_dest(5).unwrap();
        assert_eq!(out.previous, PhysReg(5));
        assert_eq!(rf.lookup(5), out.new);
        assert_eq!(rf.ready_cycle(out.new), u64::MAX);
        assert_eq!(rf.free.len(), 31);
    }

    #[test]
    fn rename_exhausts_free_list() {
        let mut rf = RegisterFile::new(4, 6);
        assert!(rf.rename_dest(0).is_some());
        assert!(rf.rename_dest(1).is_some());
        assert!(!rf.can_rename());
        assert!(rf.rename_dest(2).is_none());
    }

    #[test]
    fn release_recycles_registers() {
        let mut rf = RegisterFile::new(4, 6);
        let a = rf.rename_dest(0).unwrap();
        let b = rf.rename_dest(1).unwrap();
        assert!(rf.rename_dest(2).is_none());
        rf.release(a.previous);
        let c = rf.rename_dest(2).unwrap();
        assert_eq!(c.new, a.previous);
        rf.release(b.previous);
        assert!(rf.can_rename());
    }

    #[test]
    fn ready_cycle_tracking() {
        let mut rf = RegisterFile::new(32, 64);
        let out = rf.rename_dest(3).unwrap();
        rf.set_ready_cycle(out.new, 42);
        assert_eq!(rf.ready_cycle(out.new), 42);
    }

    #[test]
    fn serial_dependence_chain_through_same_arch_reg() {
        // r1 = ...; r1 = r1 + ...; each definition gets a new physical reg.
        let mut rf = RegisterFile::new(32, 64);
        let first = rf.rename_dest(1).unwrap();
        rf.set_ready_cycle(first.new, 10);
        let src_for_second = rf.lookup(1);
        assert_eq!(src_for_second, first.new);
        let second = rf.rename_dest(1).unwrap();
        assert_ne!(second.new, first.new);
        assert_eq!(second.previous, first.new);
        assert!(rf.ready_cycle(src_for_second) <= 10);
        assert!(rf.ready_cycle(second.new) > 10);
    }

    #[test]
    #[should_panic(expected = "at least as many physical")]
    fn too_few_physical_registers_panics() {
        let _ = RegisterFile::new(32, 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lookup_out_of_range_panics() {
        let rf = RegisterFile::new(4, 8);
        let _ = rf.lookup(4);
    }

    #[test]
    #[should_panic(expected = "free list overflow")]
    fn double_release_panics() {
        let mut rf = RegisterFile::new(4, 5);
        let out = rf.rename_dest(0).unwrap();
        rf.release(out.previous);
        rf.release(out.previous);
    }

    #[test]
    fn paper_sizes_construct() {
        // Per-thread sizes from Figure 2: 64 AP (int) regs, 96 EP (fp) regs.
        let ap = RegisterFile::new(32, 64);
        let ep = RegisterFile::new(32, 96);
        assert_eq!(ap.free.len(), 32);
        assert_eq!(ep.free.len(), 64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Renaming and releasing in any interleaving never loses or
        /// duplicates physical registers: free + live mappings is constant.
        #[test]
        fn conservation_of_registers(ops in prop::collection::vec((0usize..8, prop::bool::ANY), 0..200)) {
            let mut rf = RegisterFile::new(8, 24);
            let mut pending_release: Vec<PhysReg> = Vec::new();
            for (arch, release_one) in ops {
                if release_one {
                    if let Some(r) = pending_release.pop() {
                        rf.release(r);
                    }
                } else if let Some(out) = rf.rename_dest(arch) {
                    pending_release.push(out.previous);
                }
                // 8 committed mappings + free + pending-release == 24 always.
                prop_assert_eq!(8 + rf.free.len() + pending_release.len(), 24);
            }
        }
    }
}
