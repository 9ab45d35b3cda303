"""186.crafty stand-in: 64-bit bitboard manipulation — population counts,
leading-zero scans, shift/xor mixing, and low-bit-conditional branches."""

DESCRIPTION = "bitboard popcount/scan/mix kernels"

_BOARDS = 64


def build():
    passes = 24
    return f"""
        .text
_start: la   r9, boards
        li   r10, {_BOARDS}
        li   r11, 177
fill:   mulq r11, 89, r11
        addq r11, 123, r11
        sll  r11, 17, r12
        xor  r12, r11, r12
        stq  r12, 0(r9)
        lda  r9, 8(r9)
        subq r10, 1, r10
        bne  r10, fill

        li   r15, {passes}
        clr  r1              ; popcount accumulator
        clr  r2              ; scan accumulator
pass:   la   r9, boards
        li   r10, {_BOARDS}
scan:   ldq  r3, 0(r9)
        ctpop r3, r4
        addq r1, r4, r1
        ctlz r3, r5
        addq r2, r5, r2
        srl  r3, 7, r6
        xor  r6, r3, r6
        sll  r6, 3, r7
        xor  r7, r6, r7
        blbs r7, oddmix
        addq r7, 11, r7
        br   mixdone
oddmix: subq r7, 5, r7
        cttz r7, r8
        addq r2, r8, r2
mixdone:
        stq  r7, 0(r9)
        lda  r9, 8(r9)
        subq r10, 1, r10
        bne  r10, scan
        subq r15, 1, r15
        bne  r15, pass

        addq r1, r2, r16
        and  r16, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
        .align 8
boards: .space {_BOARDS * 8}
"""
