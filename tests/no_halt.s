; noreba-verify fixture: a counting loop with no halt anywhere, so the
; program cannot terminate and the structural verifier reports
; cfg-no-exit instead of the assembler stopping the process.
entry:
    li t0, 0
loop:
    addi t0, t0, 1
    jal loop
