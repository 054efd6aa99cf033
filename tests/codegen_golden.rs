//! Golden tests: the generated trigger text for the paper's Example 4.6
//! and the Octave backend output are pinned, so any change to the delta
//! rules, factoring, or printers is caught explicitly.

use linview::apps::general::general_program;
use linview::compiler::codegen::{numpy, octave};
use linview::compiler::{compile, CompileOptions};
use linview::prelude::*;

fn a4_trigger_program() -> TriggerProgram {
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", 8, 8);
    compile(&program, &["A"], &cat, &CompileOptions::default()).unwrap()
}

#[test]
fn example_4_6_trigger_text_is_pinned() {
    let tp = a4_trigger_program();
    let expected = "\
ON UPDATE A BY (dU_A, dV_A):
  U_B := [ dU_A | A dU_A + dU_A (dV_A' dU_A) ];
  V_B := [ A' dV_A | dV_A ];
  U_C := [ U_B | B U_B + U_B (V_B' U_B) ];
  V_C := [ B' V_B | V_B ];
  A += dU_A dV_A';
  B += U_B V_B';
  C += U_C V_C';
";
    assert_eq!(tp.to_string(), expected);
}

#[test]
fn octave_output_is_pinned() {
    let tp = a4_trigger_program();
    let expected = "\
function [A, B, C] = on_update_A(A, B, C, dU_A, dV_A)
  U_B = [dU_A, A * dU_A + dU_A * (dV_A' * dU_A)];
  V_B = [A' * dV_A, dV_A];
  U_C = [U_B, B * U_B + U_B * (V_B' * U_B)];
  V_C = [B' * V_B, V_B];
  A = A + dU_A * dV_A';
  B = B + U_B * V_B';
  C = C + U_C * V_C';
end
";
    assert_eq!(octave::emit_trigger(&tp.triggers[0]), expected);
}

#[test]
fn numpy_output_is_pinned() {
    let tp = a4_trigger_program();
    let expected = "\
def on_update_A(A, B, C, dU_A, dV_A):
    \"\"\"Maintains A, B, C for the factored update dA = dU_A @ dV_A.T.\"\"\"
    U_B = np.hstack([dU_A, A @ dU_A + dU_A @ (dV_A.T @ dU_A)])
    V_B = np.hstack([A.T @ dV_A, dV_A])
    U_C = np.hstack([U_B, B @ U_B + U_B @ (V_B.T @ U_B)])
    V_C = np.hstack([B.T @ V_B, V_B])
    A += dU_A @ dV_A.T
    B += U_B @ V_B.T
    C += U_C @ V_C.T
    return A, B, C
";
    assert_eq!(numpy::emit_trigger(&tp.triggers[0]), expected);
}

#[test]
fn numpy_and_octave_emit_the_same_trigger_structure() {
    // Backends must agree on statement order and view coverage: same
    // number of assignments, same maintained views, modulo surface syntax.
    let program = parse_program("Z := X' * X; W := inv(Z); beta := W * X' * Y;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("X", 16, 4);
    cat.declare("Y", 16, 1);
    let tp = compile(&program, &["X"], &cat, &CompileOptions::default()).unwrap();
    let py = numpy::emit_trigger(&tp.triggers[0]);
    let oct = octave::emit_trigger(&tp.triggers[0]);
    for view in ["Z", "W", "beta"] {
        assert!(py.contains(&format!("{view} += ")), "numpy misses {view}");
        assert!(
            oct.contains(&format!("{view} = {view} + ")),
            "octave misses {view}"
        );
    }
    // Sherman–Morrison loop present in both.
    assert!(py.contains("for sm_i in range("));
    assert!(oct.contains("for sm_i = 1:columns("));
}

#[test]
fn ols_trigger_contains_sherman_morrison_block() {
    let program = parse_program("Z := X' * X; W := inv(Z); beta := W * X' * Y;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("X", 16, 4);
    cat.declare("Y", 16, 1);
    let tp = compile(&program, &["X"], &cat, &CompileOptions::default()).unwrap();
    let text = tp.to_string();
    assert!(text.contains("ON UPDATE X BY (dU_X, dV_X):"));
    assert!(text.contains("(U_W, V_W) := sherman_morrison(W, P_W, Q_W);"));
    assert!(text.contains("W += U_W V_W';"));
    assert!(text.contains("beta += U_beta V_beta';"));
    // `Y'` distributes over the stacked block so the row-vector chain
    // runs as `(Y' X) V_W` instead of forming the n×2k block `X V_W`; the
    // backends emit that association explicitly.
    assert!(text.contains("V_beta := [ Y' X V_W | Y' dU_X ];"), "{text}");
    let py = numpy::emit_trigger(&tp.triggers[0]);
    assert!(
        py.contains("V_beta = np.hstack([(Y.T @ X) @ V_W, Y.T @ dU_X])"),
        "{py}"
    );
    let oct = octave::emit_trigger(&tp.triggers[0]);
    assert!(
        oct.contains("V_beta = [(Y' * X) * V_W, Y' * dU_X];"),
        "{oct}"
    );
}

#[test]
fn general_form_trigger_text_is_pinned() {
    // T4 = A^4 T0 + (I + A + A^2 + A^3) B under EXP: the generated program
    // is P1 := A; S1 := I; S2 := P1 S1 + S1; P2 := P1 P1; then
    // T1 := A T0 + B; T2 := P1 T1 + S1 B; T4 := P2 T2 + S2 B. Algorithm 1
    // emits Appendix B's S·B terms: ΔS2·B in A's trigger (`U_S2`,
    // `B' V_S2`) and Sh·ΔB in B's (`S1 dU_B`, `S2 dU_B`).
    let (program, fin) = general_program(IterModel::Exponential, 4, 8);
    assert_eq!(fin, "T4");
    let mut cat = Catalog::new();
    cat.declare("A", 8, 8);
    cat.declare("B", 8, 2);
    cat.declare("T0", 8, 2);
    let tp = compile(&program, &["A", "B"], &cat, &CompileOptions::default()).unwrap();
    let expected = "\
ON UPDATE A BY (dU_A, dV_A):
  U_P1 := dU_A;
  V_P1 := dV_A;
  U_S2 := U_P1;
  V_S2 := S1' V_P1;
  U_P2 := [ U_P1 | P1 U_P1 + U_P1 (V_P1' U_P1) ];
  V_P2 := [ P1' V_P1 | V_P1 ];
  U_T1 := dU_A;
  V_T1 := T0' dV_A;
  U_T2 := [ U_P1 | P1 U_T1 + U_P1 (V_P1' U_T1) ];
  V_T2 := [ T1' V_P1 | V_T1 ];
  U_T4 := [ U_P2 | P2 U_T2 + U_P2 (V_P2' U_T2) | U_S2 ];
  V_T4 := [ T2' V_P2 | V_T2 | B' V_S2 ];
  A += dU_A dV_A';
  P1 += U_P1 V_P1';
  S2 += U_S2 V_S2';
  P2 += U_P2 V_P2';
  T1 += U_T1 V_T1';
  T2 += U_T2 V_T2';
  T4 += U_T4 V_T4';
ON UPDATE B BY (dU_B, dV_B):
  U_T1 := dU_B;
  V_T1 := dV_B;
  U_T2 := [ P1 U_T1 | S1 dU_B ];
  V_T2 := [ V_T1 | dV_B ];
  U_T4 := [ P2 U_T2 | S2 dU_B ];
  V_T4 := [ V_T2 | dV_B ];
  B += dU_B dV_B';
  T1 += U_T1 V_T1';
  T2 += U_T2 V_T2';
  T4 += U_T4 V_T4';
";
    assert_eq!(tp.to_string(), expected);
}
