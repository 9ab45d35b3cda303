"""181.mcf stand-in: pointer chasing over a linked node structure with
data-dependent cost updates — long dependent-load chains, poor locality."""

DESCRIPTION = "linked-node pointer chasing with cost relaxation"

_NODES = 256
_NODE_BYTES = 16  # [next_ptr, cost]


def build():
    hops = 2200
    return f"""
        .text
_start: ; --- build a permuted singly-linked ring of {_NODES} nodes ---
        la   r9, nodes
        li   r10, {_NODES}
        clr  r11             ; index i
        li   r13, 0
build:  ; next index = (i * 53 + 1) mod {_NODES}  (53 coprime with {_NODES})
        mulq r11, 53, r12
        addq r12, 1, r12
        and  r12, {_NODES - 1}, r12
        sll  r12, 4, r14
        la   r13, nodes
        addq r13, r14, r14   ; address of successor node
        sll  r11, 4, r4
        la   r5, nodes
        addq r5, r4, r4      ; address of node i
        stq  r14, 0(r4)      ; node.next
        mulq r11, 7, r6
        addq r6, 13, r6
        stq  r6, 8(r4)       ; node.cost
        addq r11, 1, r11
        subq r10, 1, r10
        bne  r10, build

        ; --- chase the ring, relaxing costs ---
        la   r16, nodes
        li   r15, {hops}
        clr  r1              ; total
        li   r2, 64          ; threshold
chase:  ldq  r17, 0(r16)     ; next pointer (dependent load)
        ldq  r3, 8(r16)      ; cost
        addq r1, r3, r1
        cmplt r3, r2, r4
        beq  r4, heavy
        addq r3, 3, r3       ; cheap edge: bump cost
        br   store
heavy:  subq r3, 1, r3       ; expensive edge: relax
store:  stq  r3, 8(r16)
        mov  r17, r16
        subq r15, 1, r15
        bne  r15, chase

        and  r1, 0x7f, r16
        call_pal putc
        call_pal halt

        .data
        .align 16
nodes:  .space {_NODES * _NODE_BYTES}
"""
