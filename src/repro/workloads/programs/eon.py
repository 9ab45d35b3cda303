"""252.eon stand-in: C++-style virtual dispatch — a loop selecting one of
four "methods" through a function-pointer table and calling it with JSR."""

DESCRIPTION = "virtual calls through a function-pointer table"


def build():
    calls = 1400
    return f"""
        .text
_start: br   main

        ; --- four small "virtual methods"; argument in r16, result in r0 ---
shade1: mulq r16, 7, r0
        addq r0, 3, r0
        sll  r0, 2, r1
        xor  r0, r1, r0
        srl  r0, 5, r1
        addq r0, r1, r0
        ret
shade2: sll  r16, 2, r0
        xor  r0, r16, r0
        subq r0, 11, r1
        mulq r1, 3, r1
        xor  r0, r1, r0
        ret
shade3: subq r16, 9, r0
        sra  r0, 1, r0
        and  r0, 127, r1
        s8addq r1, r0, r0
        srl  r0, 2, r0
        ret
shade4: and  r16, 63, r0
        s4addq r0, r16, r0
        ctpop r0, r1
        addq r0, r1, r0
        sll  r0, 1, r0
        ret

main:   la   r9, vtable
        la   r10, fn1p
        ldq  r11, 0(r10)
        stq  r11, 0(r9)      ; materialise the vtable at runtime
        la   r10, fn2p
        ldq  r11, 0(r10)
        stq  r11, 8(r9)
        la   r10, fn3p
        ldq  r11, 0(r10)
        stq  r11, 16(r9)
        la   r10, fn4p
        ldq  r11, 0(r10)
        stq  r11, 24(r9)

        li   r15, {calls}
        li   r13, 5          ; LCG state
        clr  r14             ; accumulator
loop:   mulq r13, 93, r13
        addq r13, 74, r13
        srl  r13, 9, r12
        and  r12, 3, r12     ; method selector
        s8addq r12, r9, r11
        ldq  r27, 0(r11)
        and  r13, 255, r16
        jsr  r26, (r27)
        addq r14, r0, r14
        subq r15, 1, r15
        bne  r15, loop

        and  r14, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
        .align 8
vtable: .space 32
fn1p:   .quad shade1
fn2p:   .quad shade2
fn3p:   .quad shade3
fn4p:   .quad shade4
"""
