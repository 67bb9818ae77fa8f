//! AST → LVM register bytecode compiler.
//!
//! A single-pass, Lua-style code generator: locals live in fixed
//! registers from the bottom of the frame, expression temporaries are
//! allocated above them with a `freereg` watermark.

use super::bytecode::{self as bc, abc, abx, asbx, builtin_id, FuncInfo, LvmProgram, Op};
use crate::ast::*;
use crate::value;
use std::collections::HashMap;
use std::fmt;

/// Compilation error with a message (line tracking is per-function).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError { message: msg.into() })
}

/// Shared cross-function state.
struct Shared {
    consts: Vec<u64>,
    const_map: HashMap<u64, u32>,
    globals: Vec<String>,
    global_map: HashMap<String, u32>,
    fn_ids: HashMap<String, u32>,
    fn_arity: Vec<usize>,
}

impl Shared {
    fn const_idx(&mut self, v: u64) -> u32 {
        if let Some(&i) = self.const_map.get(&v) {
            return i;
        }
        let i = self.consts.len() as u32;
        self.consts.push(v);
        self.const_map.insert(v, i);
        i
    }

    fn global_slot(&self, name: &str) -> Option<u32> {
        self.global_map.get(name).copied()
    }
}

/// Per-function code generator.
struct FnGen<'s> {
    shared: &'s mut Shared,
    code: Vec<u32>,
    scopes: Vec<Vec<(String, u32)>>,
    nlocals: u32,
    freereg: u32,
    maxreg: u32,
    /// Stack of break-patch lists for enclosing loops.
    breaks: Vec<Vec<usize>>,
    is_main: bool,
}

impl<'s> FnGen<'s> {
    fn new(shared: &'s mut Shared, is_main: bool) -> Self {
        FnGen {
            shared,
            code: Vec::new(),
            scopes: vec![Vec::new()],
            nlocals: 0,
            freereg: 0,
            maxreg: 0,
            breaks: Vec::new(),
            is_main,
        }
    }

    fn emit(&mut self, i: u32) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    /// Emits a jump-family instruction with a placeholder offset;
    /// returns the patch position.
    fn emit_jump(&mut self, op: Op, a: u32) -> usize {
        self.emit(asbx(op, a, 0))
    }

    /// Patches the jump at `pos` to land on the current position.
    fn patch_here(&mut self, pos: usize) {
        let target = self.code.len() as i32;
        let sbx = target - (pos as i32 + 1);
        let old = self.code[pos];
        let op = Op::from_u32(bc::get_op(old)).expect("patching a non-instruction");
        self.code[pos] = asbx(op, bc::get_a(old), sbx);
    }

    /// Relative offset from the instruction after `from_next` to `target`.
    fn jump_back(&mut self, op: Op, a: u32, target: usize) {
        let sbx = target as i32 - (self.code.len() as i32 + 1);
        self.emit(asbx(op, a, sbx));
    }

    fn alloc_temp(&mut self) -> Result<u32, CompileError> {
        let r = self.freereg;
        if r >= 250 {
            return err("expression too complex (out of registers)");
        }
        self.freereg += 1;
        self.maxreg = self.maxreg.max(self.freereg);
        Ok(r)
    }

    fn declare_local(&mut self, name: &str) -> Result<u32, CompileError> {
        // Locals must sit at the bottom of the live register window; any
        // pending temporaries would be clobbered, so this is only called
        // at statement boundaries where freereg == nlocals.
        debug_assert_eq!(self.freereg, self.nlocals);
        let r = self.nlocals;
        if r >= 200 {
            return err("too many locals");
        }
        self.scopes.last_mut().expect("scope stack never empty").push((name.to_string(), r));
        self.nlocals += 1;
        self.freereg = self.nlocals;
        self.maxreg = self.maxreg.max(self.freereg);
        Ok(r)
    }

    fn lookup_local(&self, name: &str) -> Option<u32> {
        for scope in self.scopes.iter().rev() {
            for (n, r) in scope.iter().rev() {
                if n == name {
                    return Some(*r);
                }
            }
        }
        None
    }

    fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        let dropped = self.scopes.pop().expect("scope stack never empty");
        self.nlocals -= dropped.len() as u32;
        self.freereg = self.nlocals;
    }

    // ---- expressions ----

    /// Literal → boxed constant bits, when the expression is a literal.
    fn literal_bits(e: &Expr) -> Option<u64> {
        match e {
            Expr::Num(n) => Some(value::num(*n)),
            Expr::Bool(b) => Some(value::boolean(*b)),
            Expr::Nil => Some(value::NIL),
            _ => None,
        }
    }

    /// Evaluates `e` into register `dst`.
    fn expr_to(&mut self, e: &Expr, dst: u32) -> Result<(), CompileError> {
        match e {
            Expr::Num(n) => {
                // Small integral constants load immediately. -0.0 must
                // NOT take this path: the integer immediate would drop
                // the sign bit.
                if is_int_imm(*n) && (-100000.0..=100000.0).contains(n) {
                    self.emit(asbx(Op::LoadInt, dst, *n as i32));
                } else {
                    let k = self.shared.const_idx(value::num(*n));
                    self.emit(abx(Op::LoadK, dst, k));
                }
            }
            Expr::Bool(b) => {
                self.emit(abc(Op::LoadBool, dst, *b as u32, 0));
            }
            Expr::Nil => {
                self.emit(abc(Op::LoadNil, dst, 0, 0));
            }
            Expr::Var(name) => {
                if let Some(r) = self.lookup_local(name) {
                    if r != dst {
                        self.emit(abc(Op::Move, dst, r, 0));
                    }
                } else if let Some(g) = self.shared.global_slot(name) {
                    self.emit(abx(Op::GetGlobal, dst, g));
                } else if let Some(&f) = self.shared.fn_ids.get(name.as_str()) {
                    self.emit(abx(Op::Closure, dst, f));
                } else {
                    return err(format!("undefined variable `{name}`"));
                }
            }
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => {
                    let r = self.expr_any(expr)?;
                    self.emit(abc(Op::Unm, dst, r, 0));
                }
                UnOp::Not => {
                    let r = self.expr_any(expr)?;
                    self.emit(abc(Op::Not, dst, r, 0));
                }
            },
            Expr::Binary { op, lhs, rhs } => self.binary_to(*op, lhs, rhs, dst)?,
            Expr::Index { array, index } => {
                let a = self.expr_any(array)?;
                // Immediate index fast path.
                if let Expr::Num(n) = **index {
                    if n.fract() == 0.0 && (0.0..512.0).contains(&n) {
                        self.emit(abc(Op::GetIdxI, dst, a, n as u32));
                        return Ok(());
                    }
                }
                let i = self.expr_any(index)?;
                self.emit(abc(Op::GetIdx, dst, a, i));
            }
            Expr::ArrayLit(items) => {
                if items.len() >= (1 << 18) {
                    return err("array literal too long");
                }
                let a = self.expr_fresh(&Expr::ArrayLit(Vec::new()))?; // placeholder unreachable

                // The line above would recurse; build directly instead.
                let _ = a;
                unreachable!("ArrayLit handled in expr_fresh/expr_to wrapper");
            }
            Expr::Call { callee, args } => {
                // Calls evaluate in a fresh contiguous window; copy down.
                let r = self.call_to_temp(callee, args)?;
                if r != dst {
                    self.emit(abc(Op::Move, dst, r, 0));
                }
            }
            Expr::BuiltinCall { builtin, args } => {
                let r = self.builtin_to_temp(*builtin, args)?;
                if r != dst {
                    self.emit(abc(Op::Move, dst, r, 0));
                }
            }
        }
        Ok(())
    }

    /// Evaluates `e`, returning a register that holds it (a local's own
    /// register when possible, otherwise a fresh temporary).
    fn expr_any(&mut self, e: &Expr) -> Result<u32, CompileError> {
        if let Expr::Var(name) = e {
            if let Some(r) = self.lookup_local(name) {
                return Ok(r);
            }
        }
        self.expr_fresh(e)
    }

    /// Evaluates `e` into a fresh temporary.
    fn expr_fresh(&mut self, e: &Expr) -> Result<u32, CompileError> {
        // Array literals are easier to generate here where the
        // destination register is known to be a temporary.
        if let Expr::ArrayLit(items) = e {
            let dst = self.alloc_temp()?;
            self.emit(abx(Op::NewArrI, dst, items.len() as u32));
            for (i, item) in items.iter().enumerate() {
                let saved = self.freereg;
                let v = self.expr_any(item)?;
                if i < 512 {
                    self.emit(abc(Op::SetIdxI, dst, i as u32, v));
                } else {
                    let idx = self.alloc_temp()?;
                    self.emit(asbx(Op::LoadInt, idx, i as i32));
                    self.emit(abc(Op::SetIdx, dst, idx, v));
                }
                self.freereg = saved;
            }
            return Ok(dst);
        }
        if let Expr::Call { callee, args } = e {
            return self.call_to_temp(callee, args);
        }
        if let Expr::BuiltinCall { builtin, args } = e {
            return self.builtin_to_temp(*builtin, args);
        }
        let dst = self.alloc_temp()?;
        self.expr_to(e, dst)?;
        Ok(dst)
    }

    /// Static arity check when the callee is a known function name.
    fn check_arity(&self, callee: &Expr, nargs: usize) -> Result<(), CompileError> {
        if let Expr::Var(name) = callee {
            if self.lookup_local(name).is_none() && self.shared.global_slot(name).is_none() {
                if let Some(&f) = self.shared.fn_ids.get(name.as_str()) {
                    let want = self.shared.fn_arity[f as usize];
                    if want != nargs {
                        return err(format!(
                            "function `{name}` takes {want} argument(s), got {nargs}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Emits a call; the result lands in the window base register.
    fn call_to_temp(&mut self, callee: &Expr, args: &[Expr]) -> Result<u32, CompileError> {
        let base = self.freereg;
        self.check_arity(callee, args.len())?;
        let f = self.alloc_temp()?;
        debug_assert_eq!(f, base);
        self.expr_to(callee, f)?;
        for arg in args {
            let r = self.alloc_temp()?;
            self.expr_to(arg, r)?;
            // Sub-expression temporaries may have pushed freereg past the
            // argument slot; the call window must stay contiguous.
            self.freereg = r + 1;
        }
        self.emit(abc(Op::Call, base, args.len() as u32 + 1, 2));
        self.freereg = base + 1; // result occupies the base slot
        Ok(base)
    }

    fn builtin_to_temp(&mut self, b: Builtin, args: &[Expr]) -> Result<u32, CompileError> {
        // Single-opcode builtins. The destination reuses the first free
        // slot (the handler reads B before writing A, so dst may alias
        // the argument's temporary).
        let single = match b {
            Builtin::Sqrt => Some(Op::Sqrt),
            Builtin::Floor => Some(Op::Floor),
            Builtin::Len => Some(Op::Len),
            Builtin::Array => Some(Op::NewArr),
            _ => None,
        };
        if let Some(op) = single {
            let saved = self.freereg;
            let r = self.expr_any(&args[0])?;
            self.freereg = saved;
            let dst = self.alloc_temp()?;
            self.emit(abc(op, dst, r, 0));
            return Ok(dst);
        }
        // Window-based builtins (CallB): args contiguous from base.
        let base = self.freereg;
        for arg in args {
            let r = self.alloc_temp()?;
            self.expr_to(arg, r)?;
            self.freereg = r + 1;
        }
        let id = match b {
            Builtin::Abs => builtin_id::ABS,
            Builtin::Min => builtin_id::MIN,
            Builtin::Max => builtin_id::MAX,
            Builtin::Emit => builtin_id::EMIT,
            _ => unreachable!("handled above"),
        };
        self.emit(abc(Op::CallB, base, id, args.len() as u32));
        self.freereg = base + 1;
        Ok(base)
    }

    fn binary_to(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        dst: u32,
    ) -> Result<(), CompileError> {
        // Constant folding over whole literal subtrees.
        if let (Some(a), Some(b)) = (const_eval(lhs), const_eval(rhs)) {
            if let Some(folded) = fold(op, a, b) {
                return self.expr_to(&folded, dst);
            }
        }

        match op {
            BinOp::And => {
                self.expr_to(lhs, dst)?;
                let j = self.emit_jump(Op::TestF, dst);
                self.expr_to(rhs, dst)?;
                self.patch_here(j);
                return Ok(());
            }
            BinOp::Or => {
                self.expr_to(lhs, dst)?;
                let j = self.emit_jump(Op::TestT, dst);
                self.expr_to(rhs, dst)?;
                self.patch_here(j);
                return Ok(());
            }
            _ => {}
        }

        // Normalize Gt/Ge to Lt/Le with swapped operands.
        let (op, lhs, rhs) = match op {
            BinOp::Gt => (BinOp::Lt, rhs, lhs),
            BinOp::Ge => (BinOp::Le, rhs, lhs),
            _ => (op, lhs, rhs),
        };

        let saved = self.freereg;
        let b = self.expr_any(lhs)?;

        // K-form when the RHS is a literal and the pool index fits C.
        if let Some(bits) = Self::literal_bits(rhs) {
            // AddI special case: small integer add/sub. Excludes -0.0
            // (x + 0.0 and x + (-0.0) differ when x is -0.0), and
            // subtraction of 0.0 (x - 0.0 != x + 0.0 for x = -0.0).
            if let Expr::Num(n) = rhs {
                if (op == BinOp::Add || (op == BinOp::Sub && *n != 0.0))
                    && is_int_imm(*n)
                    && (-255.0..=255.0).contains(n)
                {
                    let v = if op == BinOp::Sub { -*n } else { *n } as i32;
                    self.emit(abc(Op::AddI, dst, b, (v + 256) as u32));
                    self.freereg = saved;
                    return Ok(());
                }
            }
            let kop = match op {
                BinOp::Add => Some(Op::AddK),
                BinOp::Sub => Some(Op::SubK),
                BinOp::Mul => Some(Op::MulK),
                BinOp::Div => Some(Op::DivK),
                BinOp::Mod => Some(Op::ModK),
                BinOp::Eq => Some(Op::EqK),
                BinOp::Ne => Some(Op::NeK),
                BinOp::Lt => Some(Op::LtK),
                BinOp::Le => Some(Op::LeK),
                _ => None,
            };
            if let Some(kop) = kop {
                let k = self.shared.const_idx(bits);
                if k < 512 {
                    self.emit(abc(kop, dst, b, k));
                    self.freereg = saved;
                    return Ok(());
                }
            }
        }

        let c = self.expr_any(rhs)?;
        let rop = match op {
            BinOp::Add => Op::Add,
            BinOp::Sub => Op::Sub,
            BinOp::Mul => Op::Mul,
            BinOp::Div => Op::Div,
            BinOp::Mod => Op::Mod,
            BinOp::Eq => Op::Eq,
            BinOp::Ne => Op::Ne,
            BinOp::Lt => Op::Lt,
            BinOp::Le => Op::Le,
            BinOp::And | BinOp::Or | BinOp::Gt | BinOp::Ge => unreachable!("normalized above"),
        };
        self.emit(abc(rop, dst, b, c));
        self.freereg = saved;
        Ok(())
    }

    // ---- statements ----

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        self.push_scope();
        for s in stmts {
            self.stmt(s)?;
        }
        self.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        debug_assert_eq!(self.freereg, self.nlocals, "temps leaked across statements");
        match s {
            Stmt::Var { name, init } => {
                if self.is_main && self.scopes.len() == 1 {
                    // Top-level var: global (slot pre-registered).
                    let g =
                        self.shared.global_slot(name).expect("top-level globals pre-registered");
                    let saved = self.freereg;
                    let r = self.expr_fresh(init)?;
                    self.emit(abx(Op::SetGlobal, r, g));
                    self.freereg = saved;
                } else {
                    // Evaluate first (initializer may reference an outer
                    // binding of the same name), then bind.
                    let saved = self.freereg;
                    let r = self.expr_fresh(init)?;
                    self.freereg = saved;
                    let slot = self.declare_local(name)?;
                    debug_assert_eq!(slot, r, "local lands where the temp was computed");
                    if slot != r {
                        self.emit(abc(Op::Move, slot, r, 0));
                    }
                }
            }
            Stmt::Assign { target, value } => match target {
                Expr::Var(name) => {
                    if let Some(r) = self.lookup_local(name) {
                        let saved = self.freereg;
                        self.expr_to(value, r)?;
                        self.freereg = saved;
                    } else if let Some(g) = self.shared.global_slot(name) {
                        let saved = self.freereg;
                        let r = self.expr_any(value)?;
                        self.emit(abx(Op::SetGlobal, r, g));
                        self.freereg = saved;
                    } else {
                        return err(format!("undefined variable `{name}`"));
                    }
                }
                Expr::Index { array, index } => {
                    let saved = self.freereg;
                    let a = self.expr_any(array)?;
                    if let Expr::Num(n) = **index {
                        if n.fract() == 0.0 && (0.0..512.0).contains(&n) {
                            let v = self.expr_any(value)?;
                            self.emit(abc(Op::SetIdxI, a, n as u32, v));
                            self.freereg = saved;
                            return Ok(());
                        }
                    }
                    let i = self.expr_any(index)?;
                    let v = self.expr_any(value)?;
                    self.emit(abc(Op::SetIdx, a, i, v));
                    self.freereg = saved;
                }
                _ => return err("invalid assignment target"),
            },
            Stmt::If { cond, then_body, else_body } => {
                let saved = self.freereg;
                let c = self.expr_any(cond)?;
                let jfalse = self.emit_jump(Op::TestF, c);
                self.freereg = saved;
                self.block(then_body)?;
                if else_body.is_empty() {
                    self.patch_here(jfalse);
                } else {
                    let jend = self.emit_jump(Op::Jmp, 0);
                    self.patch_here(jfalse);
                    self.block(else_body)?;
                    self.patch_here(jend);
                }
            }
            Stmt::While { cond, body } => {
                let top = self.code.len();
                let saved = self.freereg;
                let c = self.expr_any(cond)?;
                let jexit = self.emit_jump(Op::TestF, c);
                self.freereg = saved;
                self.breaks.push(Vec::new());
                self.block(body)?;
                self.jump_back(Op::Jmp, 0, top);
                self.patch_here(jexit);
                for b in self.breaks.pop().expect("breaks pushed above") {
                    self.patch_here(b);
                }
            }
            Stmt::For { var, start, limit, step, body } => {
                self.push_scope();
                // Hidden control registers + user variable, contiguous.
                let base = self.declare_local("(for-index)")?;
                let rlimit = self.declare_local("(for-limit)")?;
                let rstep = self.declare_local("(for-step)")?;
                let saved = self.freereg;
                self.expr_to(start, base)?;
                self.expr_to(limit, rlimit)?;
                self.expr_to(step, rstep)?;
                self.freereg = saved;
                let rvar = self.declare_local(var)?;
                debug_assert_eq!(rvar, base + 3);
                let jprep = self.emit_jump(Op::ForPrep, base);
                let body_top = self.code.len();
                self.breaks.push(Vec::new());
                self.block(body)?;
                self.patch_here(jprep);
                // FORLOOP jumps back to the body top when continuing.
                let sbx = body_top as i32 - (self.code.len() as i32 + 1);
                self.emit(asbx(Op::ForLoop, base, sbx));
                for b in self.breaks.pop().expect("breaks pushed above") {
                    self.patch_here(b);
                }
                self.pop_scope();
            }
            Stmt::Return(value) => {
                if self.is_main {
                    // `return` at top level halts the interpreter.
                    self.emit(abc(Op::Halt, 0, 0, 0));
                } else {
                    match value {
                        Some(e) => {
                            let saved = self.freereg;
                            let r = self.expr_any(e)?;
                            self.emit(abc(Op::Return, r, 2, 0));
                            self.freereg = saved;
                        }
                        None => {
                            self.emit(abc(Op::Return, 0, 1, 0));
                        }
                    }
                }
            }
            Stmt::Break => {
                if self.breaks.is_empty() {
                    return err("`break` outside a loop");
                }
                let j = self.emit_jump(Op::Jmp, 0);
                self.breaks.last_mut().expect("checked non-empty").push(j);
            }
            Stmt::Expr(e) => {
                let saved = self.freereg;
                // Call statements discard the result.
                if let Expr::Call { callee, args } = e {
                    self.check_arity(callee, args.len())?;
                    let base = self.freereg;
                    let f = self.alloc_temp()?;
                    self.expr_to(callee, f)?;
                    for arg in args {
                        let r = self.alloc_temp()?;
                        self.expr_to(arg, r)?;
                        self.freereg = r + 1;
                    }
                    self.emit(abc(Op::Call, base, args.len() as u32 + 1, 1));
                } else {
                    let _ = self.expr_fresh(e)?;
                }
                self.freereg = saved;
            }
        }
        debug_assert_eq!(self.freereg, self.nlocals, "temps leaked by statement");
        Ok(())
    }
}

/// True when `n` can be carried as an integer immediate without losing
/// information (in particular, -0.0 cannot: its sign bit matters).
fn is_int_imm(n: f64) -> bool {
    n.fract() == 0.0 && !(n == 0.0 && n.is_sign_negative())
}

/// Evaluates a pure-literal numeric subtree at compile time.
fn const_eval(e: &Expr) -> Option<f64> {
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Unary { op: UnOp::Neg, expr } => const_eval(expr).map(|v| -v),
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = (const_eval(lhs)?, const_eval(rhs)?);
            match fold(*op, a, b)? {
                Expr::Num(n) => Some(n),
                _ => None,
            }
        }
        _ => None,
    }
}

fn fold(op: BinOp, a: f64, b: f64) -> Option<Expr> {
    Some(match op {
        BinOp::Add => Expr::Num(a + b),
        BinOp::Sub => Expr::Num(a - b),
        BinOp::Mul => Expr::Num(a * b),
        BinOp::Div => Expr::Num(a / b),
        BinOp::Mod => Expr::Num(a - (a / b).floor() * b),
        BinOp::Eq => Expr::Bool(a == b),
        BinOp::Ne => Expr::Bool(a != b),
        BinOp::Lt => Expr::Bool(a < b),
        BinOp::Le => Expr::Bool(a <= b),
        BinOp::Gt => Expr::Bool(a > b),
        BinOp::Ge => Expr::Bool(a >= b),
        BinOp::And | BinOp::Or => return None,
    })
}

/// Compiles a script to LVM bytecode.
///
/// `predefined_globals` injects named input parameters (e.g. the
/// benchmark size `N`); their initial values are stored in
/// [`LvmProgram`]-adjacent global init data returned alongside.
///
/// # Errors
/// Returns a [`CompileError`] for undefined names, arity mismatches and
/// resource-limit overflows.
pub fn compile_lvm(
    script: &Script,
    predefined_globals: &[(&str, f64)],
) -> Result<(LvmProgram, Vec<u64>), CompileError> {
    let mut shared = Shared {
        consts: Vec::new(),
        const_map: HashMap::new(),
        globals: Vec::new(),
        global_map: HashMap::new(),
        fn_ids: HashMap::new(),
        fn_arity: vec![0], // main
    };

    // Register injected globals first so their slots are stable.
    let mut global_init = Vec::new();
    for (name, v) in predefined_globals {
        if shared.global_map.contains_key(*name) {
            return err(format!("duplicate predefined global `{name}`"));
        }
        shared.global_map.insert(name.to_string(), shared.globals.len() as u32);
        shared.globals.push(name.to_string());
        global_init.push(value::num(*v));
    }

    // Register top-level globals.
    for s in &script.top_level {
        if let Stmt::Var { name, .. } = s {
            if !shared.global_map.contains_key(name) {
                shared.global_map.insert(name.clone(), shared.globals.len() as u32);
                shared.globals.push(name.clone());
                global_init.push(value::NIL);
            }
        }
    }

    // Register function names (ids 1..; 0 is main).
    for (i, f) in script.functions.iter().enumerate() {
        let id = i as u32 + 1;
        if shared.fn_ids.insert(f.name.clone(), id).is_some() {
            return err(format!("duplicate function `{}`", f.name));
        }
        shared.fn_arity.push(f.params.len());
    }

    let mut code: Vec<u32> = Vec::new();
    let mut funcs: Vec<FuncInfo> = Vec::new();

    // Main (function 0).
    {
        let mut g = FnGen::new(&mut shared, true);
        for s in &script.top_level {
            g.stmt(s)?;
        }
        g.emit(abc(Op::Halt, 0, 0, 0));
        funcs.push(FuncInfo { code_off: 0, nparams: 0, nregs: g.maxreg.max(1) });
        code.extend_from_slice(&g.code);
    }

    for f in &script.functions {
        let off = code.len() as u32;
        let mut g = FnGen::new(&mut shared, false);
        for p in &f.params {
            g.declare_local(p)?;
        }
        for s in &f.body {
            g.stmt(s)?;
        }
        // Implicit `return nil`.
        g.emit(abc(Op::Return, 0, 1, 0));
        funcs.push(FuncInfo {
            code_off: off,
            nparams: f.params.len() as u32,
            nregs: g.maxreg.max(f.params.len() as u32).max(1),
        });
        code.extend_from_slice(&g.code);
    }

    if code.len() >= (1 << 26) {
        return err("program too large");
    }

    Ok((
        LvmProgram {
            code,
            consts: shared.consts,
            funcs,
            nglobals: shared.globals.len() as u32,
            global_names: shared.globals,
        },
        global_init,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str) -> (LvmProgram, Vec<u64>) {
        compile_lvm(&parse(src).unwrap(), &[]).unwrap()
    }

    #[test]
    fn simple_program_compiles() {
        let (p, _) = compile("var x = 1 + 2; emit(x);");
        assert_eq!(p.funcs.len(), 1);
        assert!(p.code.len() >= 3);
        // Last instruction of main is Halt.
        assert_eq!(bc::get_op(*p.code.last().unwrap()), Op::Halt as u32);
    }

    #[test]
    fn constant_folding() {
        let (p, _) = compile("var x = 2 * 3 + 4;");
        // Folded to LoadInt 10 + SetGlobal + Halt.
        assert_eq!(p.code.len(), 3);
        assert_eq!(bc::get_op(p.code[0]), Op::LoadInt as u32);
        assert_eq!(bc::get_sbx(p.code[0]), 10);
    }

    #[test]
    fn functions_and_calls() {
        let (p, _) = compile("fn id(x) { return x; } emit(id(5));");
        assert_eq!(p.funcs.len(), 2);
        assert_eq!(p.funcs[1].nparams, 1);
        let has_call = p.code.iter().any(|&i| bc::get_op(i) == Op::Call as u32);
        assert!(has_call);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let r = compile_lvm(&parse("fn f(a, b) { return a; } f(1);").unwrap(), &[]);
        assert!(r.is_err());
    }

    #[test]
    fn undefined_variable_rejected() {
        assert!(compile_lvm(&parse("emit(zzz);").unwrap(), &[]).is_err());
    }

    #[test]
    fn predefined_globals_get_slots() {
        let (p, init) = compile_lvm(&parse("emit(N);").unwrap(), &[("N", 42.0)]).unwrap();
        assert_eq!(p.nglobals, 1);
        assert_eq!(init[0], value::num(42.0));
    }

    #[test]
    fn for_loop_uses_forprep_forloop() {
        let (p, _) = compile("var s = 0; for i = 1, 10 { s = s + i; }");
        let ops: Vec<u32> = p.code.iter().map(|&i| bc::get_op(i)).collect();
        assert!(ops.contains(&(Op::ForPrep as u32)));
        assert!(ops.contains(&(Op::ForLoop as u32)));
    }

    #[test]
    fn k_forms_selected() {
        let (p, _) = compile("var a = 0; var b = a * 1.5; var c = a < 2.5;");
        let ops: Vec<u32> = p.code.iter().map(|&i| bc::get_op(i)).collect();
        assert!(ops.contains(&(Op::MulK as u32)));
        assert!(ops.contains(&(Op::LtK as u32)));
    }

    #[test]
    fn addi_selected_for_small_ints() {
        let (p, _) = compile("var a = 0; var b = a + 1; var c = a - 3;");
        let addis: Vec<u32> =
            p.code.iter().filter(|&&i| bc::get_op(i) == Op::AddI as u32).copied().collect();
        assert_eq!(addis.len(), 2);
        assert_eq!(bc::get_c(addis[0]) as i32 - 256, 1);
        assert_eq!(bc::get_c(addis[1]) as i32 - 256, -3);
    }

    #[test]
    fn break_patches_to_loop_end() {
        let (p, _) = compile("var i = 0; while true { break; } emit(i);");
        // Must terminate: the Jmp from break lands after the loop.
        let ops: Vec<u32> = p.code.iter().map(|&i| bc::get_op(i)).collect();
        assert!(ops.contains(&(Op::Jmp as u32)));
    }

    #[test]
    fn break_outside_loop_rejected() {
        assert!(compile_lvm(&parse("break;").unwrap(), &[]).is_err());
    }

    #[test]
    fn k_form_falls_back_when_pool_exceeds_c_field() {
        // Force >512 distinct constants so late K-form candidates cannot
        // fit the 9-bit C field and must fall back to LoadK + register
        // form.
        let mut src = String::from(
            "var a = 0;
",
        );
        for i in 0..600 {
            src.push_str(&format!(
                "a = a + {}.5;
",
                i + 200000
            ));
        }
        src.push_str("emit(a);");
        let (p, init) = compile_lvm(&parse(&src).unwrap(), &[]).unwrap();
        assert!(p.consts.len() > 512);
        // Register-form Add must appear (the fallback path).
        assert!(p.code.iter().any(|&i| bc::get_op(i) == Op::Add as u32));
        // And the program still evaluates correctly on the oracle.
        let r = crate::lvm::interp::LvmInterp::new(&p, &init).run(1_000_000).unwrap();
        let expect: f64 = (0..600).map(|i| (i + 200000) as f64 + 0.5).sum();
        assert_eq!(f64::from_bits(r.emitted[0]), expect);
    }

    #[test]
    fn deep_expression_nesting_compiles() {
        let mut e = String::from("1");
        for _ in 0..60 {
            e = format!("({e} + 1)");
        }
        let src = format!("emit({e});");
        let (p, init) = compile_lvm(&parse(&src).unwrap(), &[]).unwrap();
        let r = crate::lvm::interp::LvmInterp::new(&p, &init).run(10_000).unwrap();
        assert_eq!(f64::from_bits(r.emitted[0]), 61.0);
    }

    #[test]
    fn shadowing_in_blocks() {
        let src = "
            var x = 1;
            fn f() {
                var x = 2;
                if true { var x = 3; emit(x); }
                emit(x);
                return 0;
            }
            f();
            emit(x);
        ";
        let (p, init) = compile_lvm(&parse(src).unwrap(), &[]).unwrap();
        let r = crate::lvm::interp::LvmInterp::new(&p, &init).run(10_000).unwrap();
        let vals: Vec<f64> = r.emitted.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(vals, vec![3.0, 2.0, 1.0]);
    }
}
