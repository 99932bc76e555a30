// SPEC 2000 INT surrogate workloads (paper Table 3 false-positive study).
//
// Each program reads its whole input through SYS_READ — so every input byte
// enters memory tainted — and then runs a compute kernel in the style of
// the corresponding SPEC benchmark.  The kernels are written the way real
// compiled code behaves: input-derived values are validated (compared)
// before they are ever used in address arithmetic, which is exactly the
// compatibility property the paper's compare-untaint rule exists for.
// The ablation campaign (`ptaint-campaign ablation`) shows several of these
// workloads false-positive once that rule is disabled.
//
// Input protocol shared by all six: the file "/input" on the VFS.
#include "guest/apps/apps.hpp"

namespace {

// Shared prologue: reads /input into `inbuf`, leaves the byte count in
// `incount`.  Each program appends this unit plus its kernel.
constexpr const char* kReadInput = R"(
    .data
path_input: .asciiz "/input"
    .align 2
incount:    .word 0
inbuf:      .space 65536

    .text
# read_input() — slurp /input into inbuf; v0 = total bytes.
read_input:
    addiu $sp, $sp, -32
    sw $ra, 28($sp)
    sw $s0, 24($sp)
    sw $s1, 20($sp)
    la $a0, path_input
    li $a1, 0
    jal open
    move $s0, $v0
    bltz $s0, ri_done_empty
    li $s1, 0                 # total
ri_loop:
    move $a0, $s0
    la $a1, inbuf
    addu $a1, $a1, $s1
    li $a2, 4096
    jal read
    blez $v0, ri_eof
    addu $s1, $s1, $v0
    b ri_loop
ri_eof:
    move $a0, $s0
    jal close
    move $v0, $s1
    sw $s1, incount
    b ri_out
ri_done_empty:
    li $v0, 0
    sw $zero, incount
ri_out:
    lw $s1, 20($sp)
    lw $s0, 24($sp)
    lw $ra, 28($sp)
    addiu $sp, $sp, 32
    jr $ra

# readint(a0 = ptr) — skip non-digits, parse unsigned decimal.
# v0 = value, v1 = pointer past the number.  Digit comparisons validate
# (and so untaint) the value, as any real parser's would.
readint:
    move $v0, $zero
ri_skip:
    lbu $t0, 0($a0)
    beqz $t0, ri_parse_done
    blt $t0, '0', ri_next
    bgt $t0, '9', ri_next
    b ri_digits
ri_next:
    addiu $a0, $a0, 1
    b ri_skip
ri_digits:
    lbu $t0, 0($a0)
    blt $t0, '0', ri_parse_done
    bgt $t0, '9', ri_parse_done
    addiu $t0, $t0, -48
    li $t1, 10
    mul $v0, $v0, $t1
    addu $v0, $v0, $t0
    addiu $a0, $a0, 1
    b ri_digits
ri_parse_done:
    move $3, $a0              # v1 = cursor
    jr $ra
)";

std::string with_read_input(const char* kernel) {
  return std::string(kReadInput) + kernel;
}

}  // namespace

namespace ptaint::guest::apps {

asmgen::Source spec_bzip2() {
  return {"spec_bzip2.s", with_read_input(R"(
# BZIP2 surrogate: run-length compress inbuf into outbuf, decompress into
# decbuf, verify, and checksum — repeated for several passes.
    .data
outbuf: .space 131072
decbuf: .space 65536
    .text
main:
    addiu $sp, $sp, -32
    sw $ra, 28($sp)
    sw $s0, 24($sp)
    sw $s1, 20($sp)
    sw $s2, 16($sp)
    jal read_input
    move $s0, $v0             # n
    blez $s0, bz_exit
    li $s2, 0                 # checksum
    li $s1, 0                 # pass
bz_pass:
    # ---- compress: (count,byte) pairs ----
    la $t0, inbuf             # src
    la $t1, outbuf            # dst
    la $t2, inbuf
    addu $t2, $t2, $s0        # end
bz_c_loop:
    bgeu $t0, $t2, bz_c_done
    lbu $t3, 0($t0)           # run byte
    li $t4, 1                 # run length
bz_run:
    addu $t5, $t0, $t4
    bgeu $t5, $t2, bz_run_done
    bgeu $t4, 255, bz_run_done
    lbu $t6, 0($t5)
    bne $t6, $t3, bz_run_done
    addiu $t4, $t4, 1
    b bz_run
bz_run_done:
    sb $t4, 0($t1)
    sb $t3, 1($t1)
    addiu $t1, $t1, 2
    addu $t0, $t0, $t4
    b bz_c_loop
bz_c_done:
    # ---- decompress and verify ----
    la $t0, outbuf
    move $t7, $t1             # compressed end
    la $t1, decbuf
bz_d_loop:
    bgeu $t0, $t7, bz_d_done
    lbu $t4, 0($t0)           # count
    lbu $t3, 1($t0)           # byte
    addiu $t0, $t0, 2
bz_d_run:
    blez $t4, bz_d_loop
    sb $t3, 0($t1)
    addu $s2, $s2, $t3        # checksum accumulates tainted data (fine)
    addiu $t1, $t1, 1
    addiu $t4, $t4, -1
    b bz_d_run
bz_d_done:
    # verify round trip
    la $t0, inbuf
    la $t1, decbuf
    move $t2, $s0
bz_v_loop:
    blez $t2, bz_v_ok
    lbu $t3, 0($t0)
    lbu $t4, 0($t1)
    bne $t3, $t4, bz_fail
    addiu $t0, $t0, 1
    addiu $t1, $t1, 1
    addiu $t2, $t2, -1
    b bz_v_loop
bz_v_ok:
    addiu $s1, $s1, 1
    blt $s1, 24, bz_pass
bz_exit:
    la $a0, fmt_res
    move $a1, $s2
    jal printf
    li $v0, 0
    b bz_out
bz_fail:
    li $v0, 1
bz_out:
    lw $s2, 16($sp)
    lw $s1, 20($sp)
    lw $s0, 24($sp)
    lw $ra, 28($sp)
    addiu $sp, $sp, 32
    jr $ra
    .data
fmt_res: .asciiz "bzip2_s checksum=%u\n"
)")};
}

asmgen::Source spec_gzip() {
  return {"spec_gzip.s", with_read_input(R"(
# GZIP surrogate: LZ77-style backward match search over a 32-byte window.
    .text
main:
    addiu $sp, $sp, -32
    sw $ra, 28($sp)
    sw $s0, 24($sp)
    sw $s1, 20($sp)
    jal read_input
    move $s0, $v0             # n
    li $s1, 0                 # total matched length
    sw $zero, 12($sp)         # pass counter
gz_pass:
    la $t0, inbuf             # i (cursor)
    la $t9, inbuf
    addu $t9, $t9, $s0        # end
gz_outer:
    bgeu $t0, $t9, gz_pass_end
    # search window [i-32, i) for the longest match (cap 8)
    addiu $t1, $t0, -32       # j
    la $t2, inbuf
    bgeu $t1, $t2, gz_win_ok
    move $t1, $t2
gz_win_ok:
    li $t3, 0                 # best
gz_search:
    bgeu $t1, $t0, gz_search_done
    li $t4, 0                 # k: match length
gz_match:
    bgeu $t4, 8, gz_match_done
    addu $t5, $t0, $t4
    bgeu $t5, $t9, gz_match_done
    addu $t6, $t1, $t4
    lbu $t7, 0($t5)
    lbu $t8, 0($t6)
    bne $t7, $t8, gz_match_done
    addiu $t4, $t4, 1
    b gz_match
gz_match_done:
    bleu $t4, $t3, gz_no_better
    move $t3, $t4
gz_no_better:
    addiu $t1, $t1, 1
    b gz_search
gz_search_done:
    addu $s1, $s1, $t3
    bgtz $t3, gz_skip_match
    li $t3, 1
gz_skip_match:
    addu $t0, $t0, $t3
    b gz_outer
gz_pass_end:
    lw $t0, 12($sp)
    addiu $t0, $t0, 1
    sw $t0, 12($sp)
    blt $t0, 6, gz_pass
gz_done:
    la $a0, fmt_res
    move $a1, $s1
    jal printf
    li $v0, 0
    lw $s1, 20($sp)
    lw $s0, 24($sp)
    lw $ra, 28($sp)
    addiu $sp, $sp, 32
    jr $ra
    .data
fmt_res: .asciiz "gzip_s matched=%u\n"
)")};
}

asmgen::Source spec_gcc() {
  return {"spec_gcc.s", with_read_input(R"(
# GCC surrogate: tokenizer + left-associative expression evaluator over
# lines of the form "12 + 34 * 5 - 6 ;", accumulating the results.
    .text
main:
    addiu $sp, $sp, -32
    sw $ra, 28($sp)
    sw $s0, 24($sp)
    sw $s1, 20($sp)
    sw $s2, 16($sp)
    jal read_input
    blez $v0, gc_done
    sw $v0, 12($sp)           # input length
    sw $zero, 8($sp)          # pass counter
    li $s1, 0                 # accumulator over expressions
gc_pass:
    la $s0, inbuf             # cursor
    la $t0, inbuf
    lw $t1, 12($sp)
    addu $s2, $t0, $t1        # end
gc_expr:
    bgeu $s0, $s2, gc_pass_end
    move $a0, $s0
    jal readint
    move $s0, $3
    move $t9, $v0             # current value
gc_op:
    bgeu $s0, $s2, gc_expr_end
    lbu $t0, 0($s0)
    addiu $s0, $s0, 1
    li $t1, ' '
    beq $t0, $t1, gc_op
    li $t1, ';'
    beq $t0, $t1, gc_expr_end
    li $t1, '+'
    beq $t0, $t1, gc_plus
    li $t1, '-'
    beq $t0, $t1, gc_minus
    li $t1, '*'
    beq $t0, $t1, gc_times
    beqz $t0, gc_pass_end
    b gc_op                   # skip newlines / unknown bytes
gc_plus:
    move $a0, $s0
    jal readint
    move $s0, $3
    addu $t9, $t9, $v0
    b gc_op
gc_minus:
    move $a0, $s0
    jal readint
    move $s0, $3
    subu $t9, $t9, $v0
    b gc_op
gc_times:
    move $a0, $s0
    jal readint
    move $s0, $3
    mul $t9, $t9, $v0
    b gc_op
gc_expr_end:
    addu $s1, $s1, $t9
    b gc_expr
gc_pass_end:
    lw $t0, 8($sp)
    addiu $t0, $t0, 1
    sw $t0, 8($sp)
    blt $t0, 32, gc_pass
gc_done:
    la $a0, fmt_res
    move $a1, $s1
    jal printf
    li $v0, 0
    lw $s2, 16($sp)
    lw $s1, 20($sp)
    lw $s0, 24($sp)
    lw $ra, 28($sp)
    addiu $sp, $sp, 32
    jr $ra
    .data
fmt_res: .asciiz "gcc_s sum=%d\n"
)")};
}

asmgen::Source spec_mcf() {
  return {"spec_mcf.s", with_read_input(R"(
# MCF surrogate: Bellman-Ford over an edge list "N M  u v w  u v w ...".
# Node ids are bound-checked (validated) before indexing, as mcf's own
# array accesses are.
    .data
    .align 2
dist:  .space 256             # up to 64 nodes
edges: .space 12288           # up to 1024 edges * (u,v,w)
    .text
main:
    addiu $sp, $sp, -40
    sw $ra, 36($sp)
    sw $s0, 32($sp)
    sw $s1, 28($sp)
    sw $s2, 24($sp)
    sw $s3, 20($sp)
    jal read_input
    blez $v0, mc_fail
    la $s0, inbuf
    move $a0, $s0
    jal readint
    move $s0, $3
    move $s1, $v0             # N
    bgtz $s1, mc_n_ok
    b mc_fail
mc_n_ok:
    bleu $s1, 64, mc_n_ok2
    li $s1, 64
mc_n_ok2:
    move $a0, $s0
    jal readint
    move $s0, $3
    move $s2, $v0             # M
    bleu $s2, 1024, mc_m_ok
    li $s2, 1024
mc_m_ok:
    # parse edges
    la $s3, edges
    move $t9, $s2
mc_parse:
    blez $t9, mc_init
    move $a0, $s0
    jal readint
    move $s0, $3
    # validate node id: u < N
    bgeu $v0, $s1, mc_clip_u
    b mc_u_ok
mc_clip_u:
    li $v0, 0
mc_u_ok:
    sw $v0, 0($s3)
    move $a0, $s0
    jal readint
    move $s0, $3
    bgeu $v0, $s1, mc_clip_v
    b mc_v_ok
mc_clip_v:
    li $v0, 0
mc_v_ok:
    sw $v0, 4($s3)
    move $a0, $s0
    jal readint
    move $s0, $3
    sw $v0, 8($s3)
    addiu $s3, $s3, 12
    addiu $t9, $t9, -1
    b mc_parse
mc_init:
    sw $zero, 12($sp)         # outer repetition counter
mc_round:
    # dist[0] = 0, others = 1e9
    li $t0, 0
    la $t1, dist
    li $t2, 0x3b9aca00        # 1e9
mc_init_loop:
    bgeu $t0, $s1, mc_relax_all
    sll $t3, $t0, 2
    addu $t3, $t1, $t3
    sw $t2, 0($t3)
    addiu $t0, $t0, 1
    b mc_init_loop
mc_relax_all:
    la $t1, dist
    sw $zero, 0($t1)
    li $s3, 0                 # pass
mc_pass:
    bgeu $s3, $s1, mc_report
    la $t0, edges             # e
    move $t9, $s2
mc_relax:
    blez $t9, mc_pass_end
    lw $t1, 0($t0)            # u (validated at parse)
    lw $t2, 4($t0)            # v
    lw $t3, 8($t0)            # w
    la $t4, dist
    sll $t5, $t1, 2
    addu $t5, $t4, $t5
    lw $t6, 0($t5)            # dist[u]
    sll $t5, $t2, 2
    addu $t5, $t4, $t5
    lw $t7, 0($t5)            # dist[v]
    addu $t8, $t6, $t3
    bgeu $t8, $t7, mc_no_improve
    sw $t8, 0($t5)
mc_no_improve:
    addiu $t0, $t0, 12
    addiu $t9, $t9, -1
    b mc_relax
mc_pass_end:
    addiu $s3, $s3, 1
    b mc_pass
mc_report:
    lw $t0, 12($sp)
    addiu $t0, $t0, 1
    sw $t0, 12($sp)
    blt $t0, 8, mc_round
    # print dist[N-1]
    la $t0, dist
    addiu $t1, $s1, -1
    sll $t1, $t1, 2
    addu $t0, $t0, $t1
    lw $a1, 0($t0)
    la $a0, fmt_res
    jal printf
    li $v0, 0
    b mc_out
mc_fail:
    li $v0, 1
mc_out:
    lw $s3, 20($sp)
    lw $s2, 24($sp)
    lw $s1, 28($sp)
    lw $s0, 32($sp)
    lw $ra, 36($sp)
    addiu $sp, $sp, 40
    jr $ra
    .data
fmt_res: .asciiz "mcf_s dist=%u\n"
)")};
}

asmgen::Source spec_parser() {
  return {"spec_parser.s", with_read_input(R"(
# PARSER surrogate: word bucketing.  The hash of each word is reduced
# modulo a prime and bound-checked before indexing the bucket table —
# the validation real parsers perform on table indices.
    .data
    .align 2
buckets: .space 1024          # 256 counters
    .text
main:
    addiu $sp, $sp, -32
    sw $ra, 28($sp)
    sw $s0, 24($sp)
    sw $s1, 20($sp)
    sw $s2, 16($sp)
    jal read_input
    blez $v0, pa_done
    sw $v0, 12($sp)           # input length
    sw $zero, 8($sp)          # pass counter
    li $s1, 0                 # word count
pa_pass:
    la $s0, inbuf             # cursor
    la $t0, inbuf
    lw $t1, 12($sp)
    addu $s2, $t0, $t1        # end
pa_word:
    bgeu $s0, $s2, pa_pass_end
    lbu $t0, 0($s0)
    # skip separators
    li $t1, 'a'
    blt $t0, $t1, pa_skip
    li $t1, 'z'
    bgt $t0, $t1, pa_skip
    # hash the word
    li $t2, 0                 # hash
pa_hash:
    bgeu $s0, $s2, pa_bucket
    lbu $t0, 0($s0)
    li $t1, 'a'
    blt $t0, $t1, pa_bucket
    li $t1, 'z'
    bgt $t0, $t1, pa_bucket
    li $t1, 31
    mul $t2, $t2, $t1
    addu $t2, $t2, $t0
    addiu $s0, $s0, 1
    b pa_hash
pa_bucket:
    addiu $s1, $s1, 1
    li $t1, 251
    remu $t2, $t2, $t1        # bucket = hash % 251 (tainted remainder)
    bgeu $t2, 256, pa_word    # bound check (validates/untaints the index)
    sll $t2, $t2, 2
    la $t3, buckets
    addu $t3, $t3, $t2
    lw $t4, 0($t3)
    addiu $t4, $t4, 1
    sw $t4, 0($t3)
    b pa_word
pa_skip:
    addiu $s0, $s0, 1
    b pa_word
pa_pass_end:
    lw $t0, 8($sp)
    addiu $t0, $t0, 1
    sw $t0, 8($sp)
    blt $t0, 24, pa_pass
pa_done:
    # checksum the buckets
    li $t0, 0
    li $t5, 0
    la $t3, buckets
pa_sum:
    bgeu $t0, 256, pa_report
    lw $t4, 0($t3)
    addu $t5, $t5, $t4
    mul $t5, $t5, $t0         # order-sensitive mixing (may overflow: fine)
    addiu $t3, $t3, 4
    addiu $t0, $t0, 1
    b pa_sum
pa_report:
    la $a0, fmt_res
    move $a1, $s1
    move $a2, $t5
    jal printf
    li $v0, 0
    lw $s2, 16($sp)
    lw $s1, 20($sp)
    lw $s0, 24($sp)
    lw $ra, 28($sp)
    addiu $sp, $sp, 32
    jr $ra
    .data
fmt_res: .asciiz "parser_s words=%u mix=%u\n"
)")};
}

asmgen::Source spec_vpr() {
  return {"spec_vpr.s", with_read_input(R"(
# VPR surrogate: placement hill-climb.  Nets are pairs of cell ids from the
# input (bound-checked); a deterministic LCG proposes swaps; swaps that
# reduce total wirelength are kept.
    .data
    .align 2
pos:  .space 256              # 64 cell positions
nets: .space 2048             # up to 256 nets * (u,v)
nnet: .word 0
seed: .word 12345
    .text
# cost() -> v0: sum |pos[u]-pos[v]| over nets.
cost:
    li $v0, 0
    la $t0, nets
    lw $t1, nnet
cost_loop:
    blez $t1, cost_done
    lw $t2, 0($t0)
    lw $t3, 4($t0)
    la $t4, pos
    sll $t5, $t2, 2
    addu $t5, $t4, $t5
    lw $t6, 0($t5)
    sll $t5, $t3, 2
    addu $t5, $t4, $t5
    lw $t7, 0($t5)
    subu $t8, $t6, $t7
    bgez $t8, cost_abs
    negu $t8, $t8
cost_abs:
    addu $v0, $v0, $t8
    addiu $t0, $t0, 8
    addiu $t1, $t1, -1
    b cost_loop
cost_done:
    jr $ra

# rand64() -> v0 in [0,64): LCG (untainted stream).
rand64:
    lw $t0, seed
    li $t1, 1103515245
    mul $t0, $t0, $t1
    addiu $t0, $t0, 12345
    sw $t0, seed
    srl $v0, $t0, 16
    andi $v0, $v0, 63
    jr $ra

main:
    addiu $sp, $sp, -40
    sw $ra, 36($sp)
    sw $s0, 32($sp)
    sw $s1, 28($sp)
    sw $s2, 24($sp)
    sw $s3, 20($sp)
    jal read_input
    blez $v0, vp_fail
    la $s0, inbuf
    # init positions
    li $t0, 0
    la $t1, pos
vp_init:
    bgeu $t0, 64, vp_parse
    sll $t2, $t0, 2
    addu $t2, $t1, $t2
    sw $t0, 0($t2)
    addiu $t0, $t0, 1
    b vp_init
vp_parse:
    move $a0, $s0
    jal readint
    move $s0, $3
    move $s1, $v0             # number of nets
    bleu $s1, 256, vp_nets_ok
    li $s1, 256
vp_nets_ok:
    sw $s1, nnet
    la $s2, nets
    move $s3, $s1
vp_parse_loop:
    blez $s3, vp_anneal
    move $a0, $s0
    jal readint
    move $s0, $3
    bgeu $v0, 64, vp_clip_u
    b vp_pu
vp_clip_u:
    li $v0, 0
vp_pu:
    sw $v0, 0($s2)
    move $a0, $s0
    jal readint
    move $s0, $3
    bgeu $v0, 64, vp_clip_v
    b vp_pv
vp_clip_v:
    li $v0, 0
vp_pv:
    sw $v0, 4($s2)
    addiu $s2, $s2, 8
    addiu $s3, $s3, -1
    b vp_parse_loop
vp_anneal:
    jal cost
    move $s2, $v0             # current cost
    li $s3, 0                 # iteration
vp_iter:
    bgeu $s3, 4000, vp_report
    jal rand64
    move $s0, $v0             # cell a   (s0 reused: input cursor done)
    jal rand64
    move $s1, $v0             # cell b
    # swap pos[a], pos[b]
    la $t0, pos
    sll $t1, $s0, 2
    addu $t1, $t0, $t1
    sll $t2, $s1, 2
    addu $t2, $t0, $t2
    lw $t3, 0($t1)
    lw $t4, 0($t2)
    sw $t4, 0($t1)
    sw $t3, 0($t2)
    jal cost
    bleu $v0, $s2, vp_keep
    # revert
    la $t0, pos
    sll $t1, $s0, 2
    addu $t1, $t0, $t1
    sll $t2, $s1, 2
    addu $t2, $t0, $t2
    lw $t3, 0($t1)
    lw $t4, 0($t2)
    sw $t4, 0($t1)
    sw $t3, 0($t2)
    b vp_next
vp_keep:
    move $s2, $v0
vp_next:
    addiu $s3, $s3, 1
    b vp_iter
vp_report:
    la $a0, fmt_res
    move $a1, $s2
    jal printf
    li $v0, 0
    b vp_out
vp_fail:
    li $v0, 1
vp_out:
    lw $s3, 20($sp)
    lw $s2, 24($sp)
    lw $s1, 28($sp)
    lw $s0, 32($sp)
    lw $ra, 36($sp)
    addiu $sp, $sp, 40
    jr $ra
    .data
fmt_res: .asciiz "vpr_s cost=%u\n"
)")};
}

}  // namespace ptaint::guest::apps
