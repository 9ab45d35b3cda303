"""255.vortex stand-in: an object database flavour — deep call chains and
record field copies (ldq/stq bursts), call/return dominated."""

DESCRIPTION = "deep call chains with record copies"

_RECORDS = 64
_REC_BYTES = 32


def build():
    transactions = 700
    return f"""
        .text
_start: br   main

        ; layer3(record* r16) -> checksum in r0
layer3: ldq  r1, 0(r16)
        ldq  r2, 8(r16)
        addq r1, r2, r0
        ldq  r1, 16(r16)
        xor  r0, r1, r0
        ret

        ; layer2(record* r16): copy the record forward, checksum it
layer2: lda  r30, -16(r30)
        stq  r26, 0(r30)
        ldq  r1, 0(r16)
        stq  r1, 32(r16)
        ldq  r1, 8(r16)
        stq  r1, 40(r16)
        ldq  r1, 16(r16)
        stq  r1, 48(r16)
        ldq  r1, 24(r16)
        stq  r1, 56(r16)
        bsr  r26, layer3
        ldq  r26, 0(r30)
        lda  r30, 16(r30)
        ret

        ; layer1(index in r17): locate the record, update, descend
layer1: lda  r30, -16(r30)
        stq  r26, 0(r30)
        la   r2, records
        sll  r17, 5, r3
        addq r2, r3, r16
        ldq  r4, 24(r16)
        addq r4, 1, r4
        stq  r4, 24(r16)     ; bump access counter
        bsr  r26, layer2
        ldq  r26, 0(r30)
        lda  r30, 16(r30)
        ret

main:   la   r9, records
        li   r10, {_RECORDS * _REC_BYTES // 8}
        li   r11, 85
fill:   mulq r11, 57, r11
        addq r11, 19, r11
        stq  r11, 0(r9)
        lda  r9, 8(r9)
        subq r10, 1, r10
        bne  r10, fill

        li   r15, {transactions}
        li   r13, 9
        clr  r14
txn:    mulq r13, 37, r13
        addq r13, 11, r13
        and  r13, {_RECORDS // 2 - 1}, r17
        bsr  r26, layer1
        addq r14, r0, r14
        subq r15, 1, r15
        bne  r15, txn

        and  r14, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
        .align 8
records: .space {_RECORDS * _REC_BYTES * 2}
"""
