"""197.parser stand-in: binary recursive descent with stack frames — deep
BSR/RET recursion, the return-address-stack stress case."""

DESCRIPTION = "recursive descent (deep call/return recursion)"

_DEPTH = 7  # 2^7 = 128 leaf calls per tree walk


def build():
    walks = 16
    return f"""
        .text
_start: br   main

        ; parse(depth in r16) -> value in r0
parse:  lda  r30, -32(r30)
        stq  r26, 0(r30)
        stq  r16, 8(r30)
        bne  r16, inner
        ; leaf: hash the leaf counter
        addq r19, 1, r19
        mulq r19, 31, r0
        xor  r0, r19, r0
        ldq  r26, 0(r30)
        lda  r30, 32(r30)
        ret
inner:  subq r16, 1, r16
        bsr  r26, parse      ; left child
        stq  r0, 16(r30)
        ldq  r16, 8(r30)
        subq r16, 1, r16
        bsr  r26, parse      ; right child
        ldq  r2, 16(r30)
        addq r0, r2, r0
        sll  r0, 1, r1
        xor  r0, r1, r0
        ldq  r26, 0(r30)
        lda  r30, 32(r30)
        ret

main:   clr  r19
        clr  r14
        li   r15, {walks}
walk:   li   r16, {_DEPTH}
        bsr  r26, parse
        addq r14, r0, r14
        subq r15, 1, r15
        bne  r15, walk

        and  r14, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
pad:    .space 16
"""
