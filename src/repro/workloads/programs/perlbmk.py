"""253.perlbmk stand-in: threaded-code opcode dispatch — every handler ends
in its own register-indirect jump (many indirect-jump sites, the highest
chaining stress in the suite) plus a string-hash helper called per op."""

DESCRIPTION = "threaded-code dispatch, many indirect jump sites"

_PROGLEN = 80


def build():
    iterations = 16
    return f"""
        .text
_start: br   setup

        ; hash(r16=char) -> r0; small helper called from handlers
hash:   mulq r16, 131, r0
        xor  r0, r25, r0
        zapnot r0, 3, r0
        mov  r0, r25
        ret

        ; threaded handlers: each fetches and dispatches the next op itself
op_a:   addq r1, 5, r1
        sll  r1, 3, r2
        xor  r1, r2, r1
        srl  r1, 7, r2
        addq r1, r2, r1
        zapnot r1, 3, r1
        ldbu r3, 0(r16)
        lda  r16, 1(r16)
        subl r17, 1, r17
        beq  r17, done
        s8addq r3, r9, r13
        ldq  r27, 0(r13)
        jmp  r31, (r27)
op_b:   xor  r1, r17, r1
        mulq r1, 13, r2
        srl  r2, 4, r2
        addq r1, r2, r1
        zapnot r1, 3, r1
        ldbu r3, 0(r16)
        lda  r16, 1(r16)
        subl r17, 1, r17
        beq  r17, done
        s8addq r3, r9, r13
        ldq  r27, 0(r13)
        jmp  r31, (r27)
op_c:   mov  r1, r18
        and  r18, 0x7f, r18
        stq  r16, 24(r30)
        stq  r17, 32(r30)
        mov  r18, r16
        bsr  r26, hash
        addq r1, r0, r1
        ldq  r16, 24(r30)
        ldq  r17, 32(r30)
        ldbu r3, 0(r16)
        lda  r16, 1(r16)
        subl r17, 1, r17
        beq  r17, done
        s8addq r3, r9, r13
        ldq  r27, 0(r13)
        jmp  r31, (r27)
op_d:   sll  r1, 1, r1
        zapnot r1, 3, r1
        subq r1, 3, r2
        and  r2, 63, r2
        addq r1, r2, r1
        cmplt r1, 200, r2
        cmovne r2, r2, r1
        ldbu r3, 0(r16)
        lda  r16, 1(r16)
        subl r17, 1, r17
        beq  r17, done
        s8addq r3, r9, r13
        ldq  r27, 0(r13)
        jmp  r31, (r27)

done:   subq r15, 1, r15
        bne  r15, restart
        and  r1, 0x7f, r16
        call_pal putc
        call_pal halt

restart:
        la   r16, script
        li   r17, {_PROGLEN}
        ldbu r3, 0(r16)
        lda  r16, 1(r16)
        s8addq r3, r9, r13
        ldq  r27, 0(r13)
        jmp  r31, (r27)

setup:  la   r9, script
        li   r10, {_PROGLEN}
        li   r11, 119
sfill:  mulq r11, 45, r11
        addq r11, 7, r11
        srl  r11, 3, r12
        and  r12, 3, r12
        stb  r12, 0(r9)
        lda  r9, 1(r9)
        subq r10, 1, r10
        bne  r10, sfill

        la   r9, table
        la   r10, taddrs
        li   r12, 4
tcopy:  ldq  r11, 0(r10)
        stq  r11, 0(r9)
        lda  r9, 8(r9)
        lda  r10, 8(r10)
        subq r12, 1, r12
        bne  r12, tcopy

        lda  r30, -64(r30)
        clr  r1
        clr  r25
        li   r15, {iterations}
        la   r9, table
        br   restart

        .data
script: .space {_PROGLEN}
        .align 8
table:  .space 32
taddrs: .quad op_a
        .quad op_b
        .quad op_c
        .quad op_d
"""
