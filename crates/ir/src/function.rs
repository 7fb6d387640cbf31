//! Functions, basic blocks, globals and modules.

use crate::instr::{Instr, Op, Terminator};
use crate::types::{BlockId, FuncId, GlobalId, InstrId, Reg};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A basic block: a straight-line instruction sequence plus a terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Block {
    /// The block's id; equals its index in [`Function::blocks`].
    pub id: BlockId,
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    /// The control transfer ending the block.
    pub term: Terminator,
}

/// A function: a register file size, parameters, and a CFG of blocks.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Function {
    /// The function's id; equals its index in [`Module::functions`].
    pub id: FuncId,
    /// Human-readable name (used by the pretty printer and error messages).
    pub name: String,
    /// Number of parameters; arguments arrive in registers `r0..rN`.
    pub num_params: u32,
    /// Number of virtual registers allocated so far.
    pub num_regs: u32,
    /// Next unallocated instruction id.
    pub next_instr: u32,
    /// Entry block (conventionally `b0`).
    pub entry: BlockId,
    /// All blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
}

impl Function {
    /// Allocates a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg::new(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Allocates a fresh instruction id.
    pub fn new_instr_id(&mut self) -> InstrId {
        let id = InstrId::new(self.next_instr);
        self.next_instr += 1;
        id
    }

    /// Appends a new empty block ending in `Ret` and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId::new(self.blocks.len() as u32);
        self.blocks.push(Block {
            id,
            instrs: Vec::new(),
            term: Terminator::Ret { value: None },
        });
        id
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Returns the block with the given id, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over every instruction of the function in block order.
    pub fn instrs(&self) -> impl Iterator<Item = (BlockId, &Instr)> {
        self.blocks
            .iter()
            .flat_map(|b| b.instrs.iter().map(move |i| (b.id, i)))
    }

    /// Finds an instruction by id, returning its block and position.
    pub fn find_instr(&self, id: InstrId) -> Option<(BlockId, usize)> {
        for b in &self.blocks {
            for (idx, i) in b.instrs.iter().enumerate() {
                if i.id == id {
                    return Some((b.id, idx));
                }
            }
        }
        None
    }

    /// Returns every load instruction (id, block, op) in block order.
    pub fn loads(&self) -> Vec<(InstrId, BlockId)> {
        let mut out = Vec::new();
        for b in &self.blocks {
            for i in &b.instrs {
                if matches!(i.op, Op::Load { .. }) {
                    out.push((i.id, b.id));
                }
            }
        }
        out
    }

    /// Total number of instructions (excluding terminators).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// A global data region of fixed size, zero-initialized by the VM.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Global {
    /// The global's id; equals its index in [`Module::globals`].
    pub id: GlobalId,
    /// Human-readable name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
}

/// A whole program: functions, globals, and an entry point.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Module {
    /// All functions, indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// All globals, indexed by [`GlobalId`].
    pub globals: Vec<Global>,
    /// The function executed by [`stride_vm`](https://docs.rs)'s `run`.
    pub entry: FuncId,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Returns the function with the given id, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Declares a global region of `size` bytes and returns its id.
    pub fn add_global(&mut self, name: impl Into<String>, size: u64) -> GlobalId {
        let id = GlobalId::new(self.globals.len() as u32);
        self.globals.push(Global {
            id,
            name: name.into(),
            size,
        });
        id
    }

    /// Total static instruction count across all functions.
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(|f| f.instr_count()).sum()
    }
}

/// In-memory content fingerprint of a module: its derived structural
/// [`Hash`], which covers every field the interpreter can observe
/// (functions, blocks, instructions, globals, entry). Structurally equal
/// modules have equal fingerprints, so caches keyed by it share work
/// between byte-identical submissions whatever their origin or name.
///
/// The value is stable within a process only (`DefaultHasher` may change
/// between Rust releases); on-disk keys use the text hash in `profdb`.
pub fn fingerprint_module(module: &Module) -> u64 {
    let mut h = DefaultHasher::new();
    module.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Operand;

    fn empty_function() -> Function {
        Function {
            id: FuncId::new(0),
            name: "f".into(),
            num_params: 0,
            num_regs: 0,
            next_instr: 0,
            entry: BlockId::new(0),
            blocks: Vec::new(),
        }
    }

    #[test]
    fn new_reg_and_instr_ids_are_sequential() {
        let mut f = empty_function();
        assert_eq!(f.new_reg(), Reg::new(0));
        assert_eq!(f.new_reg(), Reg::new(1));
        assert_eq!(f.new_instr_id(), InstrId::new(0));
        assert_eq!(f.new_instr_id(), InstrId::new(1));
    }

    #[test]
    fn new_block_ids_match_indices() {
        let mut f = empty_function();
        let b0 = f.new_block();
        let b1 = f.new_block();
        assert_eq!(b0, BlockId::new(0));
        assert_eq!(b1, BlockId::new(1));
        assert_eq!(f.block(b1).id, b1);
    }

    #[test]
    fn find_instr_locates_block_and_index() {
        let mut f = empty_function();
        let b0 = f.new_block();
        let id0 = f.new_instr_id();
        let id1 = f.new_instr_id();
        let r = f.new_reg();
        f.block_mut(b0).instrs.push(Instr {
            id: id0,
            pred: None,
            op: Op::Const { dst: r, value: 1 },
        });
        f.block_mut(b0).instrs.push(Instr {
            id: id1,
            pred: None,
            op: Op::Load {
                dst: r,
                addr: Operand::Reg(r),
                offset: 0,
            },
        });
        assert_eq!(f.find_instr(id1), Some((b0, 1)));
        assert_eq!(f.find_instr(InstrId::new(99)), None);
        assert_eq!(f.loads(), vec![(id1, b0)]);
        assert_eq!(f.instr_count(), 2);
    }

    /// Two functions over one global: `main` adds 5 to a loaded word.
    fn fingerprint_subject() -> Module {
        let mut mb = crate::builder::ModuleBuilder::new();
        let g = mb.add_global("arr", 4096);
        let main = mb.declare_function("main", 1);
        let aux = mb.declare_function("aux", 0);
        let mut fb = mb.function(main);
        let base = fb.global_addr(g);
        let (v, _) = fb.load(base, 8);
        let sum = fb.add(v, 5i64);
        fb.ret(Some(Operand::Reg(sum)));
        let mut fb = mb.function(aux);
        fb.ret(None);
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn fingerprint_is_structural() {
        let m = fingerprint_subject();
        assert_eq!(fingerprint_module(&m), fingerprint_module(&m.clone()));
        assert_eq!(
            fingerprint_module(&m),
            fingerprint_module(&fingerprint_subject()),
            "separately built identical modules share a fingerprint"
        );
    }

    #[test]
    fn fingerprint_sees_one_operand_global_size_and_entry() {
        let m = fingerprint_subject();
        let base = fingerprint_module(&m);

        let mut operand = m.clone();
        let bumped = operand.functions[0].blocks[0]
            .instrs
            .iter_mut()
            .find_map(|i| match &mut i.op {
                Op::Bin {
                    rhs: Operand::Imm(k),
                    ..
                } => {
                    *k += 1;
                    Some(())
                }
                _ => None,
            });
        assert!(bumped.is_some(), "subject has an immediate operand");
        assert_ne!(fingerprint_module(&operand), base, "operand change");

        let mut global = m.clone();
        global.globals[0].size += 8;
        assert_ne!(fingerprint_module(&global), base, "global size change");

        let mut entry = m.clone();
        entry.entry = FuncId::new(1);
        assert_ne!(fingerprint_module(&entry), base, "entry change");
    }

    #[test]
    fn module_globals_and_lookup() {
        let mut m = Module::new();
        let g = m.add_global("heap_meta", 128);
        assert_eq!(g, GlobalId::new(0));
        assert_eq!(m.globals[0].size, 128);
        m.functions.push(empty_function());
        assert!(m.function_by_name("f").is_some());
        assert!(m.function_by_name("missing").is_none());
    }
}
