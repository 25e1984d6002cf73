//! Seeded random program generator.
//!
//! Programs are generated as *assembly text* and pushed through the real
//! two-pass assembler (`edb_mcu::asm`), so the fuzzer exercises the same
//! front-end as every hand-written target app. The instruction mix is
//! weighted toward what the predecode cache and the span batcher find
//! hard: two-word instructions, loads/stores split across the SRAM/FRAM
//! boundary, stores *into the instruction stream* (self-modifying code),
//! port traffic that breaks integration spans, and data-dependent
//! branches.
//!
//! Every generated program is shaped so that greedy line deletion keeps
//! it assemblable: each body slot owns a label (`b0`, `b1`, ...) that
//! jump instructions may target, and deleting a slot re-attaches its
//! labels to the next surviving line (or to the trailing `wrap` loop),
//! so references never dangle.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Where generated code lives (start of FRAM, like the curated apps).
pub const CODE_ORG: u16 = 0x4400;

/// One body slot: an instruction plus the labels that point at it.
#[derive(Debug, Clone)]
pub struct BodyLine {
    /// Indices `k` rendered as `b{k}:` in front of this line.
    pub labels: Vec<usize>,
    /// The instruction text (assembler syntax, no label, no comment).
    pub op: String,
}

/// The fixed trailer rendered after the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epilogue {
    /// `wrap: jmp start` — the program runs forever and the fuzz arms
    /// bound it by simulated time (the differential default).
    Wrap,
    /// `wrap: halt` — the program terminates, so static WCEC bounds
    /// apply end-to-end (the `--analyze` soundness arm).
    Halt,
}

/// A generated (or shrunk) fuzz program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The case seed the program was generated from.
    pub case_seed: u64,
    /// Body instructions in order.
    pub body: Vec<BodyLine>,
    /// Labels whose slot was deleted past the end of the body; rendered
    /// on the `wrap` line so jump targets never dangle.
    pub tail_labels: Vec<usize>,
    /// What follows the body (wrap loop or halt).
    pub epilogue: Epilogue,
}

impl Program {
    /// Number of body instructions.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Renders the program as assembler source. The fixed prologue sets
    /// up the stack; the fixed epilogue loops forever (fuzz runs are
    /// time-bounded) and provides the `h0` helper that `call` sites
    /// target.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(64 * (self.body.len() + 8));
        s.push_str(&format!(
            ".org {CODE_ORG:#06x}\nstart:\n    movi sp, 0x2400\n"
        ));
        for line in &self.body {
            for k in &line.labels {
                s.push_str(&format!("b{k}:\n"));
            }
            s.push_str("    ");
            s.push_str(&line.op);
            s.push('\n');
        }
        for k in &self.tail_labels {
            s.push_str(&format!("b{k}:\n"));
        }
        match self.epilogue {
            Epilogue::Wrap => s.push_str("wrap:\n    jmp start\nh0:\n    add r7, 1\n    ret\n"),
            Epilogue::Halt => s.push_str("wrap:\n    halt\nh0:\n    add r7, 1\n    ret\n"),
        }
        s.push_str(".org 0xFFFE\n.word start\n");
        s
    }

    /// A copy with body slots `range` deleted; their labels move to the
    /// next surviving line so every `b{k}` reference stays defined.
    pub fn without(&self, start: usize, len: usize) -> Program {
        let end = (start + len).min(self.body.len());
        let mut out = Program {
            case_seed: self.case_seed,
            body: Vec::with_capacity(self.body.len().saturating_sub(end - start)),
            tail_labels: self.tail_labels.clone(),
            epilogue: self.epilogue,
        };
        let mut orphans: Vec<usize> = Vec::new();
        for (i, line) in self.body.iter().enumerate() {
            if (start..end).contains(&i) {
                orphans.extend(line.labels.iter().copied());
            } else {
                let mut line = line.clone();
                if !orphans.is_empty() {
                    let mut labels = std::mem::take(&mut orphans);
                    labels.extend(line.labels);
                    line.labels = labels;
                }
                out.body.push(line);
            }
        }
        if !orphans.is_empty() {
            orphans.extend(std::mem::take(&mut out.tail_labels));
            out.tail_labels = orphans;
        }
        out
    }
}

/// The register pool the generator draws from (r13/r14 are left to the
/// composite templates; sp is set by the prologue and then fair game
/// for chaos through `mov`).
fn reg(rng: &mut SmallRng) -> u8 {
    rng.gen_range(0u8..13)
}

fn sram_addr(rng: &mut SmallRng) -> u16 {
    rng.gen_range(0x1C00u16..0x23C0)
}

fn fram_addr(rng: &mut SmallRng) -> u16 {
    rng.gen_range(0x6000u16..0x6800)
}

/// An address in unmapped space (peripheral hole below SRAM or the gap
/// between SRAM and FRAM) — exercises the bus-fault path, which must be
/// identical with and without the predecode cache.
fn wild_addr(rng: &mut SmallRng) -> u16 {
    if rng.gen_bool(0.5) {
        rng.gen_range(0x0100u16..0x1B00)
    } else {
        rng.gen_range(0x2500u16..0x4300)
    }
}

const ALU_OPS: &[&str] = &[
    "add", "sub", "and", "or", "xor", "shl", "shr", "sar", "adc", "sbc", "mul", "neg", "not",
];
const ALUI_OPS: &[&str] = &["add", "sub", "and", "or", "xor", "shl", "shr"];
const CONDS: &[&str] = &["jz", "jnz", "jc", "jnc", "jn", "jge", "jl", "jgt", "jle"];

/// Generates the deterministic program for `seed`.
///
/// `n_slots` body slots are produced (composite templates fill several
/// slots at once), each owning one jump label.
pub fn generate(seed: u64) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xED_B0_F0_5E);
    let n_slots = rng.gen_range(12usize..=44);
    let mut ops: Vec<String> = Vec::with_capacity(n_slots);

    // Seed pointer registers early so memory templates have somewhere
    // sensible to aim (later instructions are free to clobber them).
    ops.push(format!("movi r1, {:#06x}", sram_addr(&mut rng)));
    ops.push(format!("movi r2, {:#06x}", fram_addr(&mut rng)));

    while ops.len() < n_slots {
        let slot = ops.len();
        match rng.gen_range(0u32..100) {
            // Immediate loads: small constants, SRAM/FRAM addresses,
            // code labels, and raw 16-bit values (two-word forms).
            0..=15 => {
                let rd = reg(&mut rng);
                let imm = match rng.gen_range(0u32..5) {
                    0 => format!("{:#x}", rng.gen_range(0u16..64)),
                    1 => format!("{:#06x}", sram_addr(&mut rng)),
                    2 => format!("{:#06x}", fram_addr(&mut rng)),
                    3 => format!("b{}", rng.gen_range(0usize..n_slots)),
                    _ => format!("{:#06x}", rng.gen::<u16>()),
                };
                ops.push(format!("movi r{rd}, {imm}"));
            }
            // Register ALU soup.
            16..=29 => {
                let op = ALU_OPS[rng.gen_range(0usize..ALU_OPS.len())];
                ops.push(format!("{op} r{}, r{}", reg(&mut rng), reg(&mut rng)));
            }
            // Immediate ALU (often two-word).
            30..=37 => {
                let op = ALUI_OPS[rng.gen_range(0usize..ALUI_OPS.len())];
                let imm: u16 = if rng.gen_bool(0.5) {
                    rng.gen_range(0u16..16)
                } else {
                    rng.gen()
                };
                ops.push(format!("{op}i r{}, {imm:#x}", reg(&mut rng)));
            }
            38..=42 => ops.push(format!("mov r{}, r{}", reg(&mut rng), reg(&mut rng))),
            // Loads/stores through the pointer registers (and through
            // whatever garbage ended up in them).
            43..=54 => {
                let rb = if rng.gen_bool(0.7) {
                    if rng.gen_bool(0.5) {
                        1
                    } else {
                        2
                    }
                } else {
                    reg(&mut rng)
                };
                let off = rng.gen_range(0u16..0x30);
                let r = reg(&mut rng);
                match rng.gen_range(0u32..4) {
                    0 => ops.push(format!("ld r{r}, [r{rb} + {off:#x}]")),
                    1 => ops.push(format!("st [r{rb} + {off:#x}], r{r}")),
                    2 => ops.push(format!("ldb r{r}, [r{rb} + {off:#x}]")),
                    _ => ops.push(format!("stb [r{rb} + {off:#x}], r{r}")),
                }
            }
            // Self-modifying stores into the instruction stream: word
            // and byte stores at offsets 0..=3 from a code label, so
            // both words of two-word instructions (and both bytes of a
            // word) get patched under the predecode cache.
            55..=62 => {
                let target = rng.gen_range(0usize..n_slots);
                let src = reg(&mut rng);
                ops.push(format!("movi r13, b{target}"));
                if ops.len() >= n_slots {
                    break;
                }
                if rng.gen_bool(0.6) {
                    let off = if rng.gen_bool(0.5) { 0 } else { 2 };
                    ops.push(format!("st [r13 + {off:#x}], r{src}"));
                } else {
                    let off = rng.gen_range(0u16..4);
                    ops.push(format!("stb [r13 + {off:#x}], r{src}"));
                }
            }
            // Compare + conditional branch (forward-biased so most
            // programs keep flowing; the wrap loop restarts them).
            63..=72 => {
                let rd = reg(&mut rng);
                if rng.gen_bool(0.5) {
                    ops.push(format!("cmpi r{rd}, {:#x}", rng.gen_range(0u16..256)));
                } else {
                    ops.push(format!("cmp r{rd}, r{}", reg(&mut rng)));
                }
                if ops.len() >= n_slots {
                    break;
                }
                let cond = CONDS[rng.gen_range(0usize..CONDS.len())];
                let target = if slot + 2 < n_slots && rng.gen_bool(0.8) {
                    rng.gen_range(slot + 1..n_slots)
                } else {
                    rng.gen_range(0usize..n_slots)
                };
                ops.push(format!("{cond} b{target}"));
            }
            // Port writes: GPIO, code markers, UART — the events that
            // break integration spans — plus the odd unmapped port.
            73..=80 => {
                let (port, val): (u8, u16) = match rng.gen_range(0u32..4) {
                    0 => (0x00, rng.gen_range(0u16..16)),      // GPIO_OUT
                    1 => (0x02, rng.gen_range(1u16..4)),       // CODE_MARKER
                    2 => (0x08, rng.gen_range(0x20u16..0x7F)), // UART_TX
                    _ => (rng.gen_range(0x20u8..0x80), rng.gen()),
                };
                ops.push(format!("movi r12, {val:#x}"));
                if ops.len() >= n_slots {
                    break;
                }
                ops.push(format!("out {port:#04x}, r12"));
            }
            // Port reads: status registers and the timer (which must not
            // break a span), and the self-ADC (an event, then a 50 µs
            // busy window — a silent span deadline).
            81..=86 => {
                let port: u8 = match rng.gen_range(0u32..9) {
                    0 => 0x0A, // ADC_SELF
                    1 => 0x01, // GPIO_IN
                    2 => 0x09, // UART_STATUS
                    3 => 0x0B, // TIMER_LO
                    4 => 0x0C, // TIMER_HI
                    5 => 0x13, // RF_RX_STATUS
                    6 => 0x04, // DEBUG_STATUS
                    7 => 0x07, // DBG_UART_STATUS
                    _ => 0x0E, // ACCEL_STATUS
                };
                ops.push(format!("in r{}, {port:#04x}", reg(&mut rng)));
            }
            // Stack traffic.
            87..=90 => {
                if rng.gen_bool(0.6) {
                    ops.push(format!("push r{}", reg(&mut rng)));
                } else {
                    ops.push(format!("pop r{}", reg(&mut rng)));
                }
            }
            // Calls: the fixed helper, or an indirect jump through a
            // register loaded with a code label.
            91..=93 => ops.push("call h0".to_string()),
            94..=95 => {
                let target = rng.gen_range(0usize..n_slots);
                ops.push(format!("movi r14, b{target}"));
                if ops.len() >= n_slots {
                    break;
                }
                if rng.gen_bool(0.5) {
                    ops.push("jmpr r14".to_string());
                } else {
                    ops.push("callr r14".to_string());
                }
            }
            // Wild-pointer stores (the paper's "bricks the device until
            // reflash" failure mode) — bus faults must be identical on
            // every configuration.
            96..=97 => {
                ops.push(format!("movi r13, {:#06x}", wild_addr(&mut rng)));
                if ops.len() >= n_slots {
                    break;
                }
                ops.push(format!("st [r13 + 0x0], r{}", reg(&mut rng)));
            }
            _ => {
                let filler = ["nop", "ei", "di"];
                ops.push(filler[rng.gen_range(0usize..filler.len())].to_string());
            }
        }
    }
    ops.truncate(n_slots);

    Program {
        case_seed: seed,
        body: ops
            .into_iter()
            .enumerate()
            .map(|(k, op)| BodyLine {
                labels: vec![k],
                op,
            })
            .collect(),
        tail_labels: Vec::new(),
        epilogue: Epilogue::Wrap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edb_mcu::asm::assemble;

    #[test]
    fn generated_programs_assemble() {
        for seed in 0..200u64 {
            let prog = generate(seed);
            let src = prog.render();
            assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(1234).render();
        let b = generate(1234).render();
        assert_eq!(a, b);
        assert_ne!(a, generate(1235).render());
    }

    #[test]
    fn deletion_preserves_labels_and_assembles() {
        let prog = generate(7);
        let n = prog.len();
        for start in 0..n {
            for len in [1usize, 3, n] {
                let cut = prog.without(start, len);
                assert_eq!(cut.len(), n - len.min(n - start));
                assemble(&cut.render())
                    .unwrap_or_else(|e| panic!("cut {start}+{len}: {e}\n{}", cut.render()));
            }
        }
        // Deleting everything leaves an assemblable skeleton with every
        // label parked on the wrap line.
        let empty = prog.without(0, n);
        assert!(empty.is_empty());
        assert_eq!(empty.tail_labels.len(), n);
        assemble(&empty.render()).expect("skeleton assembles");
    }
}
