"""176.gcc stand-in: branchy decision cascades over a token stream — many
small basic blocks, data-dependent branch directions, moderate calls."""

DESCRIPTION = "token classification cascades (many basic blocks)"

_TOKENS = 320


def build():
    passes = 10
    return f"""
        .text
_start: br   setup

classify:                      ; token in r16 -> class counter updates
        cmpult r16, 32, r1
        beq  r1, notctl
        addq r20, 1, r20       ; control character
        mulq r16, 3, r0
        ret
notctl: cmpult r16, 48, r1
        beq  r1, notpunct
        addq r21, 1, r21       ; punctuation
        xor  r16, r20, r0
        ret
notpunct:
        cmpult r16, 58, r1
        beq  r1, notdigit
        addq r22, 1, r22       ; digit
        subq r16, 48, r2
        s4addq r2, r22, r0
        ret
notdigit:
        cmpult r16, 91, r1
        beq  r1, notupper
        addq r23, 1, r23       ; upper-case letter
        blbs r16, uodd
        addq r23, 2, r23
        mov  r16, r0
        ret
uodd:   sll  r16, 1, r0
        ret
notupper:
        cmpult r16, 123, r1
        beq  r1, other
        addq r24, 1, r24       ; lower-case letter
        subq r16, 32, r0
        ret
other:  addq r25, 1, r25
        clr  r0
        ret

setup:  la   r9, tokens
        li   r10, {_TOKENS}
        li   r11, 33
tfill:  mulq r11, 97, r11
        addq r11, 41, r11
        srl  r11, 1, r12
        and  r12, 0x7f, r12
        stb  r12, 0(r9)
        lda  r9, 1(r9)
        subq r10, 1, r10
        bne  r10, tfill

        clr  r20
        clr  r21
        clr  r22
        clr  r23
        clr  r24
        clr  r25
        clr  r14
        li   r15, {passes}
pass:   la   r18, tokens
        li   r17, {_TOKENS}
tok:    ldbu r16, 0(r18)
        lda  r18, 1(r18)
        bsr  r26, classify
        addq r14, r0, r14
        subl r17, 1, r17
        bne  r17, tok
        subq r15, 1, r15
        bne  r15, pass

        and  r14, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
tokens: .space {_TOKENS}
"""
