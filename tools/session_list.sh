#!/bin/sh
# Run the byte-identity session list of one source tree into one directory.
#
#   tools/session_list.sh TREE OUT
#
# TREE is a checkout whose package is imported (PYTHONPATH=TREE/src), and OUT
# a directory that must not exist yet.  The list:
#   - gen-data: 20 train / 8 test camouflage images at 64x64, seed 3;
#   - each of the five variants (decoder_only, adaptor_plain, tc_only,
#     sc_only, mca) at bottleneck=2 for 3 epochs;
#   - for mca and decoder_only, --stop-after-steps 1, 3, 4 and 6 (3 steps per
#     epoch, so 3 and 6 are epoch boundaries) into OUT/<variant>_stop<s>,
#     then --resume from that checkpoint into OUT/<variant>_stop<s>_resumed;
#   - mca eval and mca dump-masks of the mca and decoder_only checkpoints
#     (the adaptor path and the all-frozen trunk path of inference);
#   - the same on a second dataset of 4 train / 70 test images, seed 4, into
#     OUT/<variant>_eval70.csv and OUT/<variant>_masks70: at batch size 8 that
#     is 8 full batches and a partial one, and more than one 64-map block of
#     the S-measure's summed-area table;
#   - the stdout of mca gradcheck --seeds 1 into OUT/gradcheck.txt (every
#     session above runs in float32; this puts the float64 tape on the list);
#   - for mca and decoder_only, the stderr of a run that diverges at once
#     (lr_start=1e30) into OUT/abort_<variant>.txt; the script fails if
#     either run exits 0.
# The generated datasets are deleted at the end; every other file stays.
#
# config.txt and the checkpoint echo out_dir and data_root, so two trees
# compare only when both wrote to the same OUT: run one tree, move OUT
# aside, run the other into the same OUT, then diff -r the two.
#
#   tools/session_list.sh ../parent /tmp/sl && mv /tmp/sl /tmp/sl.parent
#   tools/session_list.sh . /tmp/sl && diff -r /tmp/sl.parent /tmp/sl
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 TREE OUT" >&2
    exit 2
fi
TREE=$(cd "$1" && pwd)
OUT=$2
if [ -e "$OUT" ]; then
    echo "error: $OUT exists" >&2
    exit 2
fi
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
DATA=$OUT/data
DATA70=$OUT/data70

mca() {
    PYTHONPATH="$TREE/src" python3 -m mca "$@" >/dev/null
}

train() {  # train OUT_NAME [ARGS...]
    name=$1
    shift
    mca train --set "data_root=$DATA" --set "out_dir=$OUT/$name" \
        --set bottleneck=2 --set epochs=3 "$@"
}

mca gen-data --out "$DATA" --n-train 20 --n-test 8 --seed 3

train decoder_only --set variant=decoder_only
train adaptor_plain --set variant=adaptor_plain
train tc_only --set variant=tc_only
train sc_only --set variant=sc_only
train mca --set variant=mca

for variant in mca decoder_only; do
    for stop in 1 3 4 6; do
        train "${variant}_stop$stop" --set "variant=$variant" --stop-after-steps "$stop"
        train "${variant}_stop${stop}_resumed" --set "variant=$variant" \
            --resume "$OUT/${variant}_stop$stop/checkpoint.mcaf"
    done
done

for variant in mca decoder_only; do
    mca eval --checkpoint "$OUT/$variant/checkpoint.mcaf" --data "$DATA" \
        --out "$OUT/${variant}_eval.csv"
    mca dump-masks --checkpoint "$OUT/$variant/checkpoint.mcaf" --data "$DATA" \
        --out "$OUT/${variant}_masks"
done

mca gen-data --out "$DATA70" --n-train 4 --n-test 70 --seed 4
for variant in mca decoder_only; do
    mca eval --checkpoint "$OUT/$variant/checkpoint.mcaf" --data "$DATA70" \
        --out "$OUT/${variant}_eval70.csv"
    mca dump-masks --checkpoint "$OUT/$variant/checkpoint.mcaf" --data "$DATA70" \
        --out "$OUT/${variant}_masks70"
done

PYTHONPATH="$TREE/src" python3 -m mca gradcheck --seeds 1 >"$OUT/gradcheck.txt"

for variant in mca decoder_only; do
    if train "abort_$variant" --set "variant=$variant" --set lr_start=1e30 \
            2>"$OUT/abort_$variant.txt"; then
        echo "error: the lr_start=1e30 run of $variant exited 0" >&2
        exit 1
    fi
done

rm -r "$DATA" "$DATA70"
