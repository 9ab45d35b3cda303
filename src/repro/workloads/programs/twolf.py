"""300.twolf stand-in: placement-style nested loops with conditional
exchanges (cmov-heavy) over a small grid of cell costs."""

DESCRIPTION = "nested loops with conditional moves/swaps over a grid"

_CELLS = 96


def build():
    passes = 18
    return f"""
        .text
_start: la   r9, grid
        li   r10, {_CELLS}
        li   r11, 63
fill:   mulq r11, 109, r11
        addq r11, 31, r11
        and  r11, 0xff, r12
        stq  r12, 0(r9)
        lda  r9, 8(r9)
        subq r10, 1, r10
        bne  r10, fill

        li   r15, {passes}
        clr  r1              ; accepted moves
        clr  r2              ; best cost
pass:   la   r9, grid
        li   r10, {_CELLS - 2}
cell:   ldq  r3, 0(r9)
        ldq  r4, 8(r9)
        ldq  r5, 16(r9)
        ; trial cost = (a + c) / 2 mixed with b
        addq r3, r5, r6
        srl  r6, 1, r6
        xor  r6, r4, r7
        and  r7, 0xff, r7
        ; keep the better (smaller) of trial and current middle via cmov
        cmplt r7, r4, r8
        cmovne r8, r7, r4
        stq  r4, 8(r9)
        addq r1, r8, r1
        ; track the maximum cost seen via cmov
        cmplt r2, r4, r8
        cmovne r8, r4, r2
        lda  r9, 8(r9)
        subq r10, 1, r10
        bne  r10, cell
        subq r15, 1, r15
        bne  r15, pass

        addq r1, r2, r16
        and  r16, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
        .align 8
grid:   .space {_CELLS * 8}
"""
