"""164.gzip stand-in: byte-stream CRC (the paper's Fig. 2 inner loop) plus a
run-length pass.  Tight loops over a byte buffer, almost no calls."""

DESCRIPTION = "byte-stream CRC and run-length loops (Fig. 2 kernel)"

_BUF = 512


def build():
    passes = 6
    return f"""
        ; --- init: fill the buffer with LCG bytes, build the CRC table ---
        .text
_start: la   r9, buf
        li   r10, {_BUF}
        li   r11, 91
fill:   mulq r11, 137, r11
        addq r11, 29, r11
        and  r11, 0xff, r12
        stb  r12, 0(r9)
        lda  r9, 1(r9)
        subq r10, 1, r10
        bne  r10, fill

        la   r9, table
        li   r10, 256
        clr  r11
tblf:   sll  r11, 3, r12
        xor  r12, r11, r12
        mulq r12, 31, r12
        stq  r12, 0(r9)
        lda  r9, 8(r9)
        addq r11, 1, r11
        subq r10, 1, r10
        bne  r10, tblf

        ; --- main: CRC passes over the buffer (the Fig. 2 loop) ---
        li   r15, {passes}
pass:   la   r16, buf
        li   r17, {_BUF}
        clr  r1
        la   r0, table
crc:    ldbu r3, 0(r16)
        subl r17, 1, r17
        lda  r16, 1(r16)
        xor  r1, r3, r3
        srl  r1, 8, r1
        and  r3, 0xff, r3
        s8addq r3, r0, r3
        ldq  r3, 0(r3)
        xor  r3, r1, r1
        bne  r17, crc

        ; --- run-length pass ---
        la   r16, buf
        li   r17, {_BUF}
        clr  r4
        clr  r5
        clr  r6
rle:    ldbu r3, 0(r16)
        lda  r16, 1(r16)
        subl r17, 1, r17
        cmpeq r3, r5, r7
        beq  r7, newrun
        addq r4, 1, r4
        br   rledone
newrun: addq r6, 1, r6
        mov  r3, r5
        clr  r4
rledone:
        bne  r17, rle
        subq r15, 1, r15
        bne  r15, pass

        and  r1, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
buf:    .space {_BUF}
        .align 8
table:  .space 2048
"""
