//! **MAC-1** — a small accumulator macroarchitecture.
//!
//! Experiment E5 needs a *macro* level: the survey's §3 compares "speeding
//! up a heavily used procedure by a factor of five" (compiled microcode)
//! with "a factor of ten" (expert microassembly) relative to ordinary
//! macrocode execution. MAC-1 supplies that baseline: a 16-bit accumulator
//! ISA whose interpreter is itself a microprogram (built in `mcc-bench`
//! via the normal compilation pipeline — emulator construction is exactly
//! the use case of the paper's reference \[14\]).
//!
//! Instruction format: `oooo aaaaaaaaaaaa` — 4-bit opcode, 12-bit operand.

/// MAC-1 opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MacroOp {
    /// Stop.
    Halt = 0,
    /// `ACC = MEM[addr]`
    Lda = 1,
    /// `MEM[addr] = ACC`
    Sta = 2,
    /// `ACC += MEM[addr]`
    Add = 3,
    /// `ACC -= MEM[addr]`
    Sub = 4,
    /// `ACC = imm` (12-bit)
    Ldi = 5,
    /// `PC = addr`
    Jmp = 6,
    /// `if ACC == 0 then PC = addr`
    Jz = 7,
    /// `if ACC != 0 then PC = addr`
    Jnz = 8,
    /// `ACC &= MEM[addr]`
    And = 9,
    /// `ACC >>= imm` (logical)
    Shr = 10,
    /// `ACC <<= imm`
    Shl = 11,
}

/// One assembled MAC-1 instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacroInstr {
    /// The operation.
    pub op: MacroOp,
    /// The 12-bit operand (address or immediate).
    pub operand: u16,
}

impl MacroInstr {
    /// Builds an instruction, masking the operand to 12 bits.
    pub fn new(op: MacroOp, operand: u16) -> Self {
        MacroInstr {
            op,
            operand: operand & 0x0FFF,
        }
    }

    /// The 16-bit encoding.
    pub fn encode(self) -> u16 {
        ((self.op as u16) << 12) | self.operand
    }

    /// Decodes a 16-bit word; unknown opcodes decode to `Halt`.
    pub fn decode(word: u16) -> Self {
        let op = match word >> 12 {
            1 => MacroOp::Lda,
            2 => MacroOp::Sta,
            3 => MacroOp::Add,
            4 => MacroOp::Sub,
            5 => MacroOp::Ldi,
            6 => MacroOp::Jmp,
            7 => MacroOp::Jz,
            8 => MacroOp::Jnz,
            9 => MacroOp::And,
            10 => MacroOp::Shr,
            11 => MacroOp::Shl,
            _ => MacroOp::Halt,
        };
        MacroInstr {
            op,
            operand: word & 0x0FFF,
        }
    }
}

/// Assembles a program into a memory image at `base`.
pub fn assemble(prog: &[MacroInstr]) -> Vec<u16> {
    prog.iter().map(|i| i.encode()).collect()
}

/// A pure-Rust reference executor for MAC-1 — the ground truth the
/// microcoded interpreter is tested against.
#[derive(Debug, Clone)]
pub struct MacroMachine {
    /// The accumulator.
    pub acc: u16,
    /// The program counter (word address).
    pub pc: u16,
    /// Word-addressed memory.
    pub mem: Vec<u16>,
    /// Whether `Halt` has executed.
    pub halted: bool,
    /// Macroinstructions executed.
    pub steps: u64,
}

impl MacroMachine {
    /// Fresh machine with 4096 words of memory.
    pub fn new() -> Self {
        MacroMachine {
            acc: 0,
            pc: 0,
            mem: vec![0; 4096],
            halted: false,
            steps: 0,
        }
    }

    /// Loads `words` at address `base`.
    pub fn load(&mut self, base: u16, words: &[u16]) {
        for (i, w) in words.iter().enumerate() {
            self.mem[base as usize + i] = *w;
        }
    }

    /// Runs until halt or `max_steps`.
    pub fn run(&mut self, max_steps: u64) {
        while !self.halted && self.steps < max_steps {
            self.step();
        }
    }

    /// Executes one macroinstruction.
    pub fn step(&mut self) {
        let i = MacroInstr::decode(self.mem[self.pc as usize % 4096]);
        self.pc = self.pc.wrapping_add(1);
        self.steps += 1;
        let a = i.operand as usize % 4096;
        match i.op {
            MacroOp::Halt => self.halted = true,
            MacroOp::Lda => self.acc = self.mem[a],
            MacroOp::Sta => self.mem[a] = self.acc,
            MacroOp::Add => self.acc = self.acc.wrapping_add(self.mem[a]),
            MacroOp::Sub => self.acc = self.acc.wrapping_sub(self.mem[a]),
            MacroOp::Ldi => self.acc = i.operand,
            MacroOp::Jmp => self.pc = i.operand,
            MacroOp::Jz => {
                if self.acc == 0 {
                    self.pc = i.operand;
                }
            }
            MacroOp::Jnz => {
                if self.acc != 0 {
                    self.pc = i.operand;
                }
            }
            MacroOp::And => self.acc &= self.mem[a],
            MacroOp::Shr => self.acc >>= i.operand.min(15),
            MacroOp::Shl => self.acc <<= i.operand.min(15),
        }
    }
}

impl Default for MacroMachine {
    fn default() -> Self {
        Self::new()
    }
}

/// A sample MAC-1 program: sums the `n` words starting at `data`, leaving
/// the total in `MEM[out]`. Uses `ptr`/`cnt` cells for state.
///
/// Memory layout convention: program at 0, cells and data as given.
pub fn sum_program(data: u16, n: u16, out: u16, cnt_cell: u16, acc_cell: u16) -> Vec<MacroInstr> {
    use MacroOp::*;
    // Unrolled-address version (self-modifying code avoided): since MAC-1
    // has no indexing, the generator unrolls the loads.
    let mut p = Vec::new();
    p.push(MacroInstr::new(Ldi, 0));
    p.push(MacroInstr::new(Sta, acc_cell));
    for k in 0..n {
        p.push(MacroInstr::new(Lda, acc_cell));
        p.push(MacroInstr::new(Add, data + k));
        p.push(MacroInstr::new(Sta, acc_cell));
    }
    p.push(MacroInstr::new(Lda, acc_cell));
    p.push(MacroInstr::new(Sta, out));
    let _ = cnt_cell;
    p.push(MacroInstr::new(Halt, 0));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for op in [
            MacroOp::Halt,
            MacroOp::Lda,
            MacroOp::Sta,
            MacroOp::Add,
            MacroOp::Sub,
            MacroOp::Ldi,
            MacroOp::Jmp,
            MacroOp::Jz,
            MacroOp::Jnz,
            MacroOp::And,
            MacroOp::Shr,
            MacroOp::Shl,
        ] {
            let i = MacroInstr::new(op, 0xABC);
            assert_eq!(MacroInstr::decode(i.encode()), i);
        }
    }

    #[test]
    fn operand_masked_to_12_bits() {
        let i = MacroInstr::new(MacroOp::Lda, 0xFFFF);
        assert_eq!(i.operand, 0x0FFF);
    }

    #[test]
    fn reference_machine_runs_sum() {
        let prog = sum_program(100, 4, 200, 201, 202);
        let words = assemble(&prog);
        let mut mm = MacroMachine::new();
        mm.load(0, &words);
        for (k, v) in [(100u16, 5u16), (101, 6), (102, 7), (103, 8)] {
            mm.mem[k as usize] = v;
        }
        mm.run(10_000);
        assert!(mm.halted);
        assert_eq!(mm.mem[200], 26);
    }

    #[test]
    fn jz_and_jnz() {
        use MacroOp::*;
        let prog = vec![
            MacroInstr::new(Ldi, 0),
            MacroInstr::new(Jz, 3),
            MacroInstr::new(Ldi, 99), // skipped
            MacroInstr::new(Ldi, 1),
            MacroInstr::new(Jnz, 6),
            MacroInstr::new(Ldi, 98), // skipped
            MacroInstr::new(Halt, 0),
        ];
        let mut mm = MacroMachine::new();
        mm.load(0, &assemble(&prog));
        mm.run(100);
        assert!(mm.halted);
        assert_eq!(mm.acc, 1);
    }

    #[test]
    fn shifts() {
        use MacroOp::*;
        let prog = vec![
            MacroInstr::new(Ldi, 0b1010),
            MacroInstr::new(Shl, 2),
            MacroInstr::new(Shr, 1),
            MacroInstr::new(Halt, 0),
        ];
        let mut mm = MacroMachine::new();
        mm.load(0, &assemble(&prog));
        mm.run(100);
        assert_eq!(mm.acc, 0b10100);
    }
}
