package cluster

import (
	"bytes"
	"testing"

	"vrio/internal/core"
	"vrio/internal/interpose"
	"vrio/internal/sim"
)

// Device reads lend their data only until the completion callback returns
// (blockdev.Response.Data), and every host read path answers later than
// that: the IOhost's BlkIn and BlkVolIn handlers after a worker Exec, the
// Elvis sidecore and the baseline I/O core after theirs. So each must copy
// inside the callback. With many reads of distinct blocks in flight at
// once, a path that kept the borrowed slice would answer with whatever the
// device read next.

const concurrentBlocks = 8

func blockFill(b int) []byte { return bytes.Repeat([]byte{byte(0x10 + b)}, 4096) }

func TestConcurrentBlockReadsGetTheirOwnBytes(t *testing.T) {
	for _, m := range []core.ModelName{core.ModelBaseline, core.ModelElvis, core.ModelVRIO} {
		// A slow pass-through interposer (dedup returns the payload it was
		// given) stretches the vRIO and Elvis replies' deferral past the
		// next device read; the baseline has no chain, and its per-byte
		// copy on the I/O core already outlasts one.
		tb := Build(Spec{Model: m, VMsPerHost: 1, WithBlock: true, Seed: 9,
			BlkChain: func(int, int) *interpose.Chain {
				return interpose.NewChain(interpose.NewDedup(10 * sim.Nanosecond))
			}})
		g := tb.Guests[0]
		for b := 0; b < concurrentBlocks; b++ {
			g.WriteBlock(uint64(b*8), blockFill(b), func(err error) {
				if err != nil {
					t.Errorf("%s write: %v", m, err)
				}
			})
		}
		tb.Eng.RunUntil(tb.Eng.Now() + 50*sim.Millisecond)
		read := 0
		for b := 0; b < concurrentBlocks; b++ {
			b := b
			g.ReadBlock(uint64(b*8), 8, func(data []byte, err error) {
				if err != nil || !bytes.Equal(data, blockFill(b)) {
					t.Errorf("%s: read of block %d returned other bytes (err=%v)", m, b, err)
				}
				read++
			})
		}
		tb.Eng.RunUntil(tb.Eng.Now() + 50*sim.Millisecond)
		if read != concurrentBlocks {
			t.Errorf("%s: %d/%d reads completed", m, read, concurrentBlocks)
		}
	}
}

func TestConcurrentVolumeReadsGetTheirOwnBytes(t *testing.T) {
	tb := buildVolTestbed(3, 3, 2)
	vol := tb.Volumes[0]
	for b := 0; b < concurrentBlocks; b++ {
		vol.Write(uint64(b*8), blockFill(b), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	tb.Eng.Run()
	read := 0
	for b := 0; b < concurrentBlocks; b++ {
		b := b
		vol.Read(uint64(b*8), 8, func(data []byte, err error) {
			if err != nil || !bytes.Equal(data, blockFill(b)) {
				t.Errorf("read of block %d returned other bytes (err=%v)", b, err)
			}
			read++
		})
	}
	tb.Eng.Run()
	if read != concurrentBlocks {
		t.Errorf("%d/%d reads completed", read, concurrentBlocks)
	}
}
