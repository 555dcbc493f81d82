; noreba-verify fixture: the setBranchId in block `armed` is followed
; by an add, not a branch, so the structural verifier reports
; setup-misplaced-branch-id at armed:0.
entry:
    li t0, 1
armed:
    setBranchId 1
    add t1, t0, t0
    halt
