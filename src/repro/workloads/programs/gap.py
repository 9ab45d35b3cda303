"""254.gap stand-in: a bytecode interpreter with a central jump-table
dispatch (one hot register-indirect jump with several targets)."""

DESCRIPTION = "bytecode interpreter, jump-table dispatch"

_PROGLEN = 96


def build():
    iterations = 24
    return f"""
        .text
_start: br   setup

        ; --- opcode handlers; each returns to the dispatch loop ---
op_add: addq r1, r3, r1
        br   next
op_sub: subq r1, 2, r1
        br   next
op_mul: mulq r1, 3, r1
        zapnot r1, 3, r1
        br   next
op_shl: sll  r1, 1, r1
        zapnot r1, 3, r1
        br   next
op_xor: xor  r1, r3, r1
        br   next
op_nop: br   next

setup:  ; build the bytecode program (opcodes 0..5)
        la   r9, bytecode
        li   r10, {_PROGLEN}
        li   r11, 201
bfill:  mulq r11, 53, r11
        addq r11, 11, r11
        srl  r11, 2, r12
        and  r12, 7, r12
        cmpult r12, 6, r13
        bne  r13, bok
        clr  r12
bok:    stb  r12, 0(r9)
        lda  r9, 1(r9)
        subq r10, 1, r10
        bne  r10, bfill

        ; build the handler table
        la   r9, handlers
        la   r10, haddrs
        li   r12, 6
hcopy:  ldq  r11, 0(r10)
        stq  r11, 0(r9)
        lda  r9, 8(r9)
        lda  r10, 8(r10)
        subq r12, 1, r12
        bne  r12, hcopy

        li   r15, {iterations}
        clr  r1
outer:  la   r16, bytecode
        li   r17, {_PROGLEN}
        la   r9, handlers
dispatch:
        ldbu r3, 0(r16)
        lda  r16, 1(r16)
        s8addq r3, r9, r13
        ldq  r27, 0(r13)
        jmp  r31, (r27)
next:   subl r17, 1, r17
        bne  r17, dispatch
        subq r15, 1, r15
        bne  r15, outer

        and  r1, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
bytecode: .space {_PROGLEN}
        .align 8
handlers: .space 48
haddrs: .quad op_add
        .quad op_sub
        .quad op_mul
        .quad op_shl
        .quad op_xor
        .quad op_nop
"""
