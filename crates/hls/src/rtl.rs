//! Emission of a Verilog-subset FSMD (finite-state machine + datapath)
//! description for a scheduled, bound accelerator.
//!
//! The emitted text is the final artifact a real flow would hand to logic
//! synthesis. It is structurally faithful — state register sized from the
//! schedule, one `case` arm per control step, operand wiring from the
//! binding — and syntactically well-formed (balanced `begin`/`end`,
//! declared wires), which the tests check.

use crate::binding::Binding;
use crate::cdfg::Dfg;
use crate::schedule::Schedule;
use std::fmt::Write;

/// Emits a Verilog module named `name` for one scheduled block.
pub fn emit_module(name: &str, dfg: &Dfg, schedule: &Schedule, binding: &Binding) -> String {
    let mut v = String::new();
    let states = schedule.len.max(1);
    let state_bits = 64 - (states.max(2) - 1).leading_zeros() as u64;

    writeln!(v, "// Generated by everest-hls (FSMD emission)").unwrap();
    writeln!(v, "module {name} (").unwrap();
    writeln!(v, "  input  wire clk,").unwrap();
    writeln!(v, "  input  wire rst,").unwrap();
    writeln!(v, "  input  wire start,").unwrap();
    writeln!(v, "  output reg  done").unwrap();
    writeln!(v, ");").unwrap();
    writeln!(v, "  reg [{}:0] state;", state_bits.saturating_sub(1)).unwrap();
    writeln!(v, "  localparam S_IDLE = {states};").unwrap();

    // Datapath registers: one per SSA result of a latency-bearing op.
    for (id, node) in dfg.nodes.iter().enumerate() {
        for (ri, _) in node.results.iter().enumerate() {
            writeln!(v, "  reg [63:0] r_{id}_{ri}; // {}", node.name).unwrap();
        }
    }
    // Functional unit instances.
    for (kind, count) in &binding.allocation {
        for i in 0..*count {
            writeln!(v, "  // functional unit: {kind} #{i}").unwrap();
            writeln!(v, "  reg [63:0] fu_{kind}_{i}_out;").unwrap();
        }
    }

    writeln!(v, "  always @(posedge clk) begin").unwrap();
    writeln!(v, "    if (rst) begin").unwrap();
    writeln!(v, "      state <= S_IDLE;").unwrap();
    writeln!(v, "      done <= 1'b0;").unwrap();
    writeln!(v, "    end else begin").unwrap();
    writeln!(v, "      case (state)").unwrap();
    writeln!(v, "        S_IDLE: if (start) begin state <= 0; done <= 1'b0; end").unwrap();
    // Nodes in issue order (start cycle, then id), so one walk over the
    // states emits each node in its arm: O(cycles + nodes), not their
    // product.
    let mut issue_order: Vec<(u64, usize)> =
        schedule.start.iter().take(dfg.len()).copied().zip(0..).collect();
    issue_order.sort_unstable();
    let mut issues = issue_order.into_iter().peekable();
    for cycle in 0..states {
        writeln!(v, "        {cycle}: begin").unwrap();
        while let Some((_, id)) = issues.next_if(|(start, _)| *start == cycle) {
            let node = &dfg.nodes[id];
            let fu = binding
                .assignment
                .get(id)
                .and_then(|a| *a)
                .map(|(k, i)| format!("fu_{k}_{i}"))
                .unwrap_or_else(|| "wire_only".to_owned());
            let operands: Vec<String> = node.operands.iter().map(|o| format!("v{}", o.0)).collect();
            writeln!(v, "          // issue {} on {} ({})", node.name, fu, operands.join(", "))
                .unwrap();
            for (ri, _) in node.results.iter().enumerate() {
                writeln!(v, "          r_{id}_{ri} <= {fu}_out;").unwrap();
            }
        }
        if cycle + 1 == states {
            writeln!(v, "          state <= S_IDLE; done <= 1'b1;").unwrap();
        } else {
            writeln!(v, "          state <= {};", cycle + 1).unwrap();
        }
        writeln!(v, "        end").unwrap();
    }
    writeln!(v, "        default: state <= S_IDLE;").unwrap();
    writeln!(v, "      endcase").unwrap();
    writeln!(v, "    end").unwrap();
    writeln!(v, "  end").unwrap();
    writeln!(v, "endmodule").unwrap();
    v
}

/// Quick structural sanity check of emitted RTL: balanced begin/end,
/// module/endmodule and case/endcase pairing.
pub fn check_structure(rtl: &str) -> bool {
    let count = |needle: &str| rtl.matches(needle).count();
    let begins = count("begin");
    let ends = count(" end") + count("\nend");
    count("module") >= 1
        && count("endmodule") == 1
        && count("case (") == count("endcase")
        && begins <= ends + count("endmodule")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind;
    use crate::schedule::{list_schedule, ResourceBudget};
    use everest_ir::{FuncBuilder, Type};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn sample() -> (Dfg, Schedule, Binding) {
        let mut fb = FuncBuilder::new("f", &[Type::F64, Type::F64], &[Type::F64]);
        let p = fb.binary("arith.mulf", fb.arg(0), fb.arg(1), Type::F64);
        let q = fb.binary("arith.addf", p, fb.arg(0), Type::F64);
        fb.ret(&[q]);
        let f = fb.finish();
        let dfg = Dfg::from_block(&f, f.body.entry().unwrap(), &HashMap::new());
        let s = list_schedule(&dfg, &ResourceBudget::default()).unwrap();
        let b = bind(&dfg, &s);
        (dfg, s, b)
    }

    #[test]
    fn emits_module_skeleton() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("axpy", &dfg, &s, &b);
        assert!(rtl.contains("module axpy ("));
        assert!(rtl.contains("endmodule"));
        assert!(rtl.contains("input  wire clk"));
        assert!(rtl.contains("case (state)"));
    }

    #[test]
    fn one_case_arm_per_control_step() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        for cycle in 0..s.len {
            assert!(rtl.contains(&format!("        {cycle}: begin")), "missing state {cycle}");
        }
    }

    #[test]
    fn fu_instances_declared() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        assert!(rtl.contains("fu_fmul_0_out"));
        assert!(rtl.contains("fu_fadd_0_out"));
    }

    #[test]
    fn structure_check_passes() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        assert!(check_structure(&rtl));
    }

    #[test]
    fn structure_check_fails_on_truncated_text() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        let truncated = &rtl[..rtl.len() / 2];
        assert!(!check_structure(truncated));
    }

    /// The state walk as first written: every state scans every node.
    /// Kept as the byte-for-byte oracle for the single-walk emitter.
    fn reference_emit_module(
        name: &str,
        dfg: &Dfg,
        schedule: &Schedule,
        binding: &Binding,
    ) -> String {
        let mut v = String::new();
        let states = schedule.len.max(1);
        let state_bits = 64 - (states.max(2) - 1).leading_zeros() as u64;

        writeln!(v, "// Generated by everest-hls (FSMD emission)").unwrap();
        writeln!(v, "module {name} (").unwrap();
        writeln!(v, "  input  wire clk,").unwrap();
        writeln!(v, "  input  wire rst,").unwrap();
        writeln!(v, "  input  wire start,").unwrap();
        writeln!(v, "  output reg  done").unwrap();
        writeln!(v, ");").unwrap();
        writeln!(v, "  reg [{}:0] state;", state_bits.saturating_sub(1)).unwrap();
        writeln!(v, "  localparam S_IDLE = {states};").unwrap();
        for (id, node) in dfg.nodes.iter().enumerate() {
            for (ri, _) in node.results.iter().enumerate() {
                writeln!(v, "  reg [63:0] r_{id}_{ri}; // {}", node.name).unwrap();
            }
        }
        for (kind, count) in &binding.allocation {
            for i in 0..*count {
                writeln!(v, "  // functional unit: {kind} #{i}").unwrap();
                writeln!(v, "  reg [63:0] fu_{kind}_{i}_out;").unwrap();
            }
        }
        writeln!(v, "  always @(posedge clk) begin").unwrap();
        writeln!(v, "    if (rst) begin").unwrap();
        writeln!(v, "      state <= S_IDLE;").unwrap();
        writeln!(v, "      done <= 1'b0;").unwrap();
        writeln!(v, "    end else begin").unwrap();
        writeln!(v, "      case (state)").unwrap();
        writeln!(v, "        S_IDLE: if (start) begin state <= 0; done <= 1'b0; end").unwrap();
        for cycle in 0..states {
            writeln!(v, "        {cycle}: begin").unwrap();
            for (id, node) in dfg.nodes.iter().enumerate() {
                if schedule.start.get(id) == Some(&cycle) {
                    let fu = binding
                        .assignment
                        .get(id)
                        .and_then(|a| *a)
                        .map(|(k, i)| format!("fu_{k}_{i}"))
                        .unwrap_or_else(|| "wire_only".to_owned());
                    let operands: Vec<String> =
                        node.operands.iter().map(|o| format!("v{}", o.0)).collect();
                    writeln!(
                        v,
                        "          // issue {} on {} ({})",
                        node.name,
                        fu,
                        operands.join(", ")
                    )
                    .unwrap();
                    for (ri, _) in node.results.iter().enumerate() {
                        writeln!(v, "          r_{id}_{ri} <= {fu}_out;").unwrap();
                    }
                }
            }
            if cycle + 1 == states {
                writeln!(v, "          state <= S_IDLE; done <= 1'b1;").unwrap();
            } else {
                writeln!(v, "          state <= {};", cycle + 1).unwrap();
            }
            writeln!(v, "        end").unwrap();
        }
        writeln!(v, "        default: state <= S_IDLE;").unwrap();
        writeln!(v, "      endcase").unwrap();
        writeln!(v, "    end").unwrap();
        writeln!(v, "  end").unwrap();
        writeln!(v, "endmodule").unwrap();
        v
    }

    /// One random node: `(unit kind or none, start draw, results, operands)`.
    type NodeSpec = (u8, u64, usize, usize);

    /// A random scheduled, bound DFG. Starts are arbitrary (several nodes
    /// per state, idle states, starts past the last state, a `start`
    /// vector shorter than the node list), since the emitter must
    /// reproduce the oracle on any input, not only on list schedules.
    fn random_design(specs: &[NodeSpec], len: u64, missing: usize) -> (Dfg, Schedule, Binding) {
        use crate::cdfg::DfgNode;
        use everest_ir::Value;
        let mut dfg = Dfg::default();
        let mut binding = Binding::default();
        let mut start = Vec::new();
        for (i, (kind, draw, results, operands)) in specs.iter().enumerate() {
            let fu = crate::oplib::FuKind::ALL.get(usize::from(kind % 12)).copied();
            let slot = i % 3;
            if let Some(kind) = fu {
                let count = binding.allocation.entry(kind).or_insert(0);
                *count = (*count).max(slot + 1);
            }
            binding.assignment.push(fu.map(|k| (k, slot)));
            start.push(draw % (len + 3));
            dfg.nodes.push(DfgNode {
                name: format!("op.{i}"),
                fu,
                latency: 1,
                preds: Vec::new(),
                succs: Vec::new(),
                buffer: None,
                uses_carried: false,
                results: (0..*results).map(|r| Value((i * 4 + r) as u32)).collect(),
                operands: (0..*operands).map(|o| Value(o as u32)).collect(),
            });
        }
        start.truncate(start.len().saturating_sub(missing));
        (dfg, Schedule { start, len }, binding)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn single_walk_emission_is_byte_identical_to_nested_scan(
            specs in prop::collection::vec((any::<u8>(), any::<u64>(), 0usize..3, 0usize..4), 0..24),
            len in 0u64..40,
            missing in 0usize..3,
        ) {
            let (dfg, schedule, binding) = random_design(&specs, len, missing);
            prop_assert_eq!(
                emit_module("k", &dfg, &schedule, &binding),
                reference_emit_module("k", &dfg, &schedule, &binding)
            );
        }
    }

    #[test]
    fn list_scheduled_emission_is_byte_identical_to_nested_scan() {
        let (dfg, s, b) = sample();
        assert_eq!(emit_module("k", &dfg, &s, &b), reference_emit_module("k", &dfg, &s, &b));
    }

    #[test]
    fn done_asserted_in_final_state() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        assert!(rtl.contains("done <= 1'b1;"));
    }
}
