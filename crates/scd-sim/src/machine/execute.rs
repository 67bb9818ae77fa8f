//! Execute stage: the issue/scoreboard timing model (dual-issue
//! pairing, operand readiness, long-latency interlocks) and the
//! per-instruction walk of the RV64 subset. Every *data* result is
//! computed by the shared [`scd_isa::exec`] semantics table (also used
//! by the `scd-ref` reference ISS), so this file only owns register
//! file / memory plumbing and timing. Control-flow arms delegate
//! prediction and redirect charging to [`super::frontend`]; loads and
//! stores charge the data side through [`super::memory`].

use super::{Machine, SimError, StaticInfo};
use crate::btb::{BtbKey, EntryKind};
use crate::config::ScdConfig;
use crate::stats::BranchClass;
use crate::trace::RedirectCause;
use scd_isa::{exec, AluOp, FpOp, Inst, Reg};
use scd_ref::MemFault;

/// What one retirement decided: where fetch goes next, and whether the
/// guest requested a halt (applied by the run loop *after* trace
/// emission so the final retirement is observed like any other).
#[derive(Debug, Clone, Copy)]
pub(super) struct StepOut {
    pub(super) next_pc: u64,
    pub(super) exit_code: Option<u64>,
}

impl Machine {
    #[inline]
    pub(super) fn wx(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.guest.arch.regs[r.index()] = v;
        }
    }

    /// Advances the issue clock for one instruction, honoring dual-issue
    /// pairing rules and operand readiness. Source/destination registers
    /// come pre-resolved from the [`StaticInfo`] side-table, so no
    /// per-retirement instruction decode happens here.
    pub(super) fn issue(&mut self, si: &StaticInfo) {
        // Absent source slots index the always-zero sentinel (entry 32),
        // so operand readiness is four unconditional loads + max.
        let min_cycle = self
            .cycle
            .max(self.xready[si.xsrc[0] as usize])
            .max(self.xready[si.xsrc[1] as usize])
            .max(self.fready[si.fsrc[0] as usize])
            .max(self.fready[si.fsrc[1] as usize]);

        let can_pair = self.cfg.issue_width > 1
            && self.issued_this_cycle == 1
            && min_cycle <= self.cycle
            && !(self.prev_was_mem && si.is_mem)
            && (si.src_x_mask() & self.prev_def_mask) == 0
            && (si.src_f_mask() & self.prev_fdef_mask) == 0;

        if can_pair {
            self.issued_this_cycle = 2;
        } else {
            self.cycle = (self.cycle + 1).max(min_cycle);
            self.issued_this_cycle = 1;
        }
        self.prev_def_mask = si.def_x_mask();
        self.prev_fdef_mask = si.def_f_mask();
        self.prev_was_mem = si.is_mem;
    }

    /// Executes one instruction functionally and charges its class-
    /// specific timing (branch resolution, data access, long-latency
    /// results). Returns the next PC and any pending halt.
    ///
    /// # Errors
    /// [`SimError::Mem`] on a faulting access, [`SimError::Break`] on
    /// `ebreak` or an unknown `ecall` service.
    pub(super) fn execute_inst<const OBSERVED: bool, const WARMING: bool>(
        &mut self,
        inst: &Inst,
        pc: u64,
        nbids: usize,
        scd_cfg: &ScdConfig,
    ) -> Result<StepOut, SimError> {
        let mut next_pc = pc + 4;
        let mut exit_code: Option<u64> = None;
        let merr = |fault: MemFault| SimError::Mem { pc, fault };

        match *inst {
            Inst::Lui { rd, imm } => {
                self.wx(rd, imm as u64);
                self.xready[rd.index()] = self.cycle + 1;
            }
            Inst::Auipc { rd, imm } => {
                self.wx(rd, pc.wrapping_add(imm as u64));
                self.xready[rd.index()] = self.cycle + 1;
            }
            Inst::Jal { rd, offset } => {
                let target = pc.wrapping_add(offset as u64);
                self.wx(rd, pc + 4);
                self.xready[rd.index()] = self.cycle + 1;
                next_pc = target;
                // Direct jumps: BTB-predicted in fetch; miss costs a
                // decode-stage redirect.
                let pred = self.btb.lookup_leveled(BtbKey::Pc(pc));
                self.charge_l1_late_target::<WARMING>(pred.is_some_and(|(_, l1)| l1));
                let hit = pred.map(|(t, _)| t) == Some(target);
                if !hit {
                    let out = self.btb.insert(BtbKey::Pc(pc), target);
                    self.note_insert::<OBSERVED>(EntryKind::Pc, out);
                    self.redirect::<OBSERVED, WARMING>(
                        RedirectCause::JalMiss,
                        self.cfg.jal_redirect_penalty,
                    );
                }
                self.note_branch::<OBSERVED>(BranchClass::Direct, !hit);
                if rd == Reg::RA {
                    self.ras.push(pc + 4);
                }
            }
            Inst::Jalr { rd, rs1, offset } => {
                let target = self.guest.arch.regs[rs1.index()].wrapping_add(offset as u64) & !1;
                self.wx(rd, pc + 4);
                self.xready[rd.index()] = self.cycle + 1;
                next_pc = target;
                self.account_indirect::<OBSERVED, WARMING>(pc, rd, rs1, target);
            }
            Inst::Branch { op, rs1, rs2, offset } => {
                let a = self.guest.arch.regs[rs1.index()];
                let b = self.guest.arch.regs[rs2.index()];
                let taken = exec::branch_taken(op, a, b);
                let target = pc.wrapping_add(offset as u64);
                // Effective front-end prediction: taken only when the
                // direction predictor says taken AND the BTB supplies
                // the target.
                let dir_pred = self.direction.predict(pc);
                let pred = self.btb.lookup_leveled(BtbKey::Pc(pc));
                // Fetch acts on the BTB target only when the direction
                // predictor says taken; only then can L1 lateness bite.
                self.charge_l1_late_target::<WARMING>(dir_pred && pred.is_some_and(|(_, l1)| l1));
                let btb_hit = pred.map(|(t, _)| t) == Some(target);
                let pred_taken = dir_pred && btb_hit;
                let mispredicted = pred_taken != taken;
                self.direction.update(pc, taken);
                if taken {
                    next_pc = target;
                    if !btb_hit {
                        let out = self.btb.insert(BtbKey::Pc(pc), target);
                        self.note_insert::<OBSERVED>(EntryKind::Pc, out);
                    }
                }
                self.note_branch::<OBSERVED>(BranchClass::Conditional, mispredicted);
                if mispredicted {
                    self.redirect::<OBSERVED, WARMING>(
                        RedirectCause::CondMispredict,
                        self.cfg.branch_miss_penalty,
                    );
                }
            }
            Inst::Load { op, rd, rs1, offset } => {
                let addr = self.guest.arch.regs[rs1.index()].wrapping_add(offset as u64);
                if OBSERVED {
                    self.scratch.ea = Some(addr);
                }
                let raw = self.guest.mem.read(addr, exec::load_width(op)).map_err(merr)?;
                self.wx(rd, exec::load_extend(op, raw));
                self.stats.loads += 1;
                self.data_timing::<OBSERVED, WARMING>(addr, false);
                self.xready[rd.index()] = self.cycle + 1 + self.cfg.load_use_penalty;
            }
            Inst::Store { op, rs2, rs1, offset } => {
                let addr = self.guest.arch.regs[rs1.index()].wrapping_add(offset as u64);
                let v = exec::store_truncate(op, self.guest.arch.regs[rs2.index()]);
                if OBSERVED {
                    self.scratch.ea = Some(addr);
                    self.scratch.store = Some(v);
                }
                self.guest.mem.write(addr, exec::store_width(op), v).map_err(merr)?;
                self.stats.stores += 1;
                self.data_timing::<OBSERVED, WARMING>(addr, true);
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let v = alu(op, self.guest.arch.regs[rs1.index()], imm as u64);
                self.wx(rd, v);
                self.xready[rd.index()] = self.cycle + 1;
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let x = &self.guest.arch.regs;
                let v = alu(op, x[rs1.index()], x[rs2.index()]);
                self.wx(rd, v);
                let lat = if op.is_muldiv() {
                    if matches!(op, AluOp::Mul | AluOp::Mulh | AluOp::Mulhu | AluOp::Mulw) {
                        self.cfg.mul_latency
                    } else {
                        self.cfg.div_latency
                    }
                } else {
                    1
                };
                self.xready[rd.index()] = self.cycle + lat;
            }
            Inst::Fld { rd, rs1, offset } => {
                let addr = self.guest.arch.regs[rs1.index()].wrapping_add(offset as u64);
                if OBSERVED {
                    self.scratch.ea = Some(addr);
                }
                let v = self.guest.mem.read(addr, 8).map_err(merr)?;
                self.guest.arch.fregs[rd.index()] = v;
                self.stats.loads += 1;
                self.data_timing::<OBSERVED, WARMING>(addr, false);
                self.fready[rd.index()] = self.cycle + 1 + self.cfg.load_use_penalty;
            }
            Inst::Fsd { rs2, rs1, offset } => {
                let addr = self.guest.arch.regs[rs1.index()].wrapping_add(offset as u64);
                if OBSERVED {
                    self.scratch.ea = Some(addr);
                    self.scratch.store = Some(self.guest.arch.fregs[rs2.index()]);
                }
                self.guest.mem.write(addr, 8, self.guest.arch.fregs[rs2.index()]).map_err(merr)?;
                self.stats.stores += 1;
                self.data_timing::<OBSERVED, WARMING>(addr, true);
            }
            Inst::FOp { op, rd, rs1, rs2 } => {
                let f = &self.guest.arch.fregs;
                self.guest.arch.fregs[rd.index()] = exec::fp_op(op, f[rs1.index()], f[rs2.index()]);
                let lat = match op {
                    FpOp::FdivD | FpOp::FsqrtD => self.cfg.fdiv_latency,
                    _ => self.cfg.fpu_latency,
                };
                self.fready[rd.index()] = self.cycle + lat;
            }
            Inst::FCmp { op, rd, rs1, rs2 } => {
                let f = &self.guest.arch.fregs;
                let v = exec::fcmp(op, f[rs1.index()], f[rs2.index()]);
                self.wx(rd, v as u64);
                self.xready[rd.index()] = self.cycle + self.cfg.fpu_latency;
            }
            Inst::FcvtLD { rd, rs1, rm } => {
                self.wx(rd, exec::fcvt_l_d(self.guest.arch.fregs[rs1.index()], rm));
                self.xready[rd.index()] = self.cycle + self.cfg.fpu_latency;
            }
            Inst::FcvtDL { rd, rs1 } => {
                let v = exec::fcvt_d_l(self.guest.arch.regs[rs1.index()]);
                self.guest.arch.fregs[rd.index()] = v;
                self.fready[rd.index()] = self.cycle + self.cfg.fpu_latency;
            }
            Inst::FmvXD { rd, rs1 } => {
                self.wx(rd, self.guest.arch.fregs[rs1.index()]);
                self.xready[rd.index()] = self.cycle + 1;
            }
            Inst::FmvDX { rd, rs1 } => {
                self.guest.arch.fregs[rd.index()] = self.guest.arch.regs[rs1.index()];
                self.fready[rd.index()] = self.cycle + 1;
            }
            Inst::Ecall => {
                match self.guest.arch.regs[Reg::A7.index()] {
                    // Halt is deferred past trace emission so the
                    // final retirement is observed like any other.
                    0 => exit_code = Some(self.guest.arch.regs[Reg::A0.index()]),
                    1 => self.guest.output.push(self.guest.arch.regs[Reg::A0.index()] as u8),
                    n => {
                        // Unknown service: treat as a guest bug.
                        let _ = n;
                        return Err(SimError::Break { pc });
                    }
                }
            }
            Inst::Ebreak => return Err(SimError::Break { pc }),
            Inst::Fence => {}

            // ---- SCD extension ----
            Inst::SetMask { bid, rs1 } => {
                let bid = bid as usize % nbids.max(1);
                self.guest.arch.scd[bid].rmask = self.guest.arch.regs[rs1.index()];
            }
            Inst::Bop { bid } => {
                self.exec_bop::<OBSERVED, WARMING>(bid, pc, &mut next_pc, scd_cfg, nbids);
            }
            Inst::Jru { bid, rs1 } => {
                next_pc = self.exec_jru::<OBSERVED, WARMING>(bid, rs1, pc, scd_cfg, nbids);
            }
            Inst::JteFlush => {
                let flushed = self.jte_flush();
                self.note_flush::<OBSERVED>(flushed);
            }
            Inst::LoadOp { op, bid, rd, rs1, offset } => {
                let bid = bid as usize % nbids.max(1);
                let addr = self.guest.arch.regs[rs1.index()].wrapping_add(offset as u64);
                if OBSERVED {
                    self.scratch.ea = Some(addr);
                }
                let raw = self.guest.mem.read(addr, exec::load_width(op)).map_err(merr)?;
                let v = exec::load_extend(op, raw);
                self.wx(rd, v);
                self.stats.loads += 1;
                self.data_timing::<OBSERVED, WARMING>(addr, false);
                let ready = self.cycle + 1 + self.cfg.load_use_penalty;
                self.xready[rd.index()] = ready;
                let s = &mut self.guest.arch.scd[bid];
                s.rop_d = v & s.rmask;
                s.rop_v = true;
                self.scd_timing[bid].rop_ready = ready;
            }
        }

        Ok(StepOut { next_pc, exit_code })
    }
}

// The integer ALU semantics live in the shared table; re-exported so the
// machine tests keep exercising exactly what the execute stage calls.
pub(super) use scd_isa::exec::alu;
