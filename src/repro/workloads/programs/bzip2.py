"""256.bzip2 stand-in: byte histogram plus repeated partial sorting passes
over the counts — loop-heavy with a branchy compare-and-swap inner loop."""

DESCRIPTION = "histogram + bubble-sort passes (block-sort flavour)"

_BUF = 384
_SORTN = 48


def build():
    passes = 4
    return f"""
        .text
_start: la   r9, buf
        li   r10, {_BUF}
        li   r11, 47
fill:   mulq r11, 75, r11
        addq r11, 61, r11
        srl  r11, 3, r12
        and  r12, 0xff, r12
        stb  r12, 0(r9)
        lda  r9, 1(r9)
        subq r10, 1, r10
        bne  r10, fill

        li   r15, {passes}
pass:
        ; --- clear the histogram ---
        la   r9, hist
        li   r10, 256
clr0:   stq  r31, 0(r9)
        lda  r9, 8(r9)
        subq r10, 1, r10
        bne  r10, clr0

        ; --- histogram the buffer ---
        la   r16, buf
        li   r17, {_BUF}
        la   r9, hist
hloop:  ldbu r3, 0(r16)
        lda  r16, 1(r16)
        s8addq r3, r9, r4
        ldq  r5, 0(r4)
        addq r5, 1, r5
        stq  r5, 0(r4)
        subl r17, 1, r17
        bne  r17, hloop

        ; --- bubble passes over the first {_SORTN} counters ---
        li   r20, 8
outer:  la   r9, hist
        li   r10, {_SORTN - 1}
inner:  ldq  r3, 0(r9)
        ldq  r4, 8(r9)
        cmple r3, r4, r5
        bne  r5, noswap
        stq  r4, 0(r9)
        stq  r3, 8(r9)
noswap: lda  r9, 8(r9)
        subq r10, 1, r10
        bne  r10, inner
        subq r20, 1, r20
        bne  r20, outer

        subq r15, 1, r15
        bne  r15, pass

        la   r9, hist
        ldq  r16, 0(r9)
        and  r16, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
buf:    .space {_BUF}
        .align 8
hist:   .space 2048
"""
