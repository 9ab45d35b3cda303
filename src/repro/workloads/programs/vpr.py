"""175.vpr stand-in: routing-cost array sweeps — multiply/accumulate over
parallel arrays with conditional minimum tracking."""

DESCRIPTION = "multiply/accumulate sweeps with conditional min tracking"

_N = 128


def build():
    sweeps = 16
    return f"""
        .text
_start: la   r9, xs
        la   r10, ys
        li   r11, {_N}
        li   r12, 71
fill:   mulq r12, 93, r12
        addq r12, 27, r12
        and  r12, 0xff, r13
        stq  r13, 0(r9)
        srl  r12, 4, r14
        and  r14, 0xff, r14
        stq  r14, 0(r10)
        lda  r9, 8(r9)
        lda  r10, 8(r10)
        subq r11, 1, r11
        bne  r11, fill

        li   r15, {sweeps}
        clr  r1              ; accumulated cost
        li   r2, 0xffff      ; running minimum
pass:   la   r9, xs
        la   r10, ys
        li   r11, {_N}
sweep:  ldq  r3, 0(r9)
        ldq  r4, 0(r10)
        mulq r3, r4, r5
        addq r1, r5, r1
        addq r3, r4, r6
        cmplt r6, r2, r7
        cmovne r7, r6, r2
        ; occasionally re-weight the x entry
        blbs r5, reweight
        br   nextel
reweight:
        addq r3, 1, r3
        stq  r3, 0(r9)
nextel: lda  r9, 8(r9)
        lda  r10, 8(r10)
        subq r11, 1, r11
        bne  r11, sweep
        subq r15, 1, r15
        bne  r15, pass

        addq r1, r2, r16
        and  r16, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
        .align 8
xs:     .space {_N * 8}
ys:     .space {_N * 8}
"""
