package bgl

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// golden1DCol pins every Part1DCol Result to the values the column-wise
// 1D partitioning produced before it ran as the 2D engine on a 1×P mesh.
// Each line records the exact bits of the simulated clock ledgers, the
// hash-probe, word, message, duplicate and hop-byte counts, a hash of
// the labeling (Levels or Dist), and a hash of the whole Result with
// its host wall time cleared. A mismatch means the 1×P engine charges,
// moves or labels something differently from the recorded behaviour.
var golden1DCol = map[string]string{
	"memory": "[{OwnedVertices:5001 NonEmptyColumns:5001 DistinctRows:18342 EdgeEntries:50034 DenseColumns:5001} {OwnedVertices:5001 NonEmptyColumns:5001 DistinctRows:18407 EdgeEntries:49962 DenseColumns:5001} {OwnedVertices:5001 NonEmptyColumns:5001 DistinctRows:18413 EdgeEntries:50202 DenseColumns:5001} {OwnedVertices:5000 NonEmptyColumns:5000 DistinctRows:18408 EdgeEntries:50260 DenseColumns:5000}]",
	"bfs-topdown-sparse/async=false/workers=1":               "sim=3f83a6c00531e7e8/3f4a17770ee79824/0000000000000000 probes=200458 words=66497 msgs=110 dups=31927 hop=267972 labels=fe5ec6b9d320f8e2 result=1733fc2df94c8812",
	"bfs-topdown-sparse/async=false/workers=4":               "sim=3f83a6c00531e7e8/3f4a17770ee79824/0000000000000000 probes=200458 words=66497 msgs=110 dups=31927 hop=267972 labels=fe5ec6b9d320f8e2 result=1733fc2df94c8812",
	"bfs-topdown-sparse/async=true/workers=1":                "sim=3f83a428fc16604e/3f4b4e58cd5e0aea/3f06052502eec7c8 probes=200458 words=66497 msgs=110 dups=31927 hop=267972 labels=fe5ec6b9d320f8e2 result=64cb287ca8ee63b8",
	"bfs-topdown-sparse/async=true/workers=4":                "sim=3f83a428fc16604e/3f4b4e58cd5e0aea/3f06052502eec7c8 probes=200458 words=66497 msgs=110 dups=31927 hop=267972 labels=fe5ec6b9d320f8e2 result=64cb287ca8ee63b8",
	"bfs-topdown-hybrid/async=false/workers=1":               "sim=3f82ef526a0b4f1b/3f3d413ab8fc16de/0000000000000000 probes=200458 words=5921 msgs=110 dups=31927 hop=25668 labels=fe5ec6b9d320f8e2 result=cd4a84c74002c53b",
	"bfs-topdown-hybrid/async=false/workers=4":               "sim=3f82ef526a0b4f1b/3f3d413ab8fc16de/0000000000000000 probes=200458 words=5921 msgs=110 dups=31927 hop=25668 labels=fe5ec6b9d320f8e2 result=cd4a84c74002c53b",
	"bfs-topdown-hybrid/async=true/workers=1":                "sim=3f82ec2976fe1458/3f3f9cc0f7b2972b/3f06052502eec7c8 probes=200458 words=5921 msgs=110 dups=31927 hop=25668 labels=fe5ec6b9d320f8e2 result=02f8c227913d728b",
	"bfs-topdown-hybrid/async=true/workers=4":                "sim=3f82ec2976fe1458/3f3f9cc0f7b2972b/3f06052502eec7c8 probes=200458 words=5921 msgs=110 dups=31927 hop=25668 labels=fe5ec6b9d320f8e2 result=02f8c227913d728b",
	"bfs-dirop-sparse/async=false/workers=1":                 "sim=3f59a27f777208b3/3f42f3a5b5e2be0c/0000000000000000 probes=13244 words=15584 msgs=126 dups=1466 hop=72576 labels=fe5ec6b9d320f8e2 result=ee66ce99b1975cc0",
	"bfs-dirop-sparse/async=false/workers=4":                 "sim=3f59a27f777208b3/3f42f3a5b5e2be0c/0000000000000000 probes=13244 words=15584 msgs=126 dups=1466 hop=72576 labels=fe5ec6b9d320f8e2 result=ee66ce99b1975cc0",
	"bfs-dirop-sparse/async=true/workers=1":                  "sim=3f58c3d594bb3254/3f44886beea2ff15/3f1b5a238cf7f5ac probes=13244 words=15584 msgs=126 dups=1466 hop=72576 labels=fe5ec6b9d320f8e2 result=8604313542b97c5a",
	"bfs-dirop-sparse/async=true/workers=4":                  "sim=3f58c3d594bb3254/3f44886beea2ff15/3f1b5a238cf7f5ac probes=13244 words=15584 msgs=126 dups=1466 hop=72576 labels=fe5ec6b9d320f8e2 result=8604313542b97c5a",
	"bfs-dirop-hybrid/async=false/workers=1":                 "sim=3f58c2206a27a378/3f4132e79b4df39c/0000000000000000 probes=13244 words=6467 msgs=126 dups=1466 hop=36108 labels=fe5ec6b9d320f8e2 result=8132d4a7325d62dc",
	"bfs-dirop-hybrid/async=false/workers=4":                 "sim=3f58c2206a27a378/3f4132e79b4df39c/0000000000000000 probes=13244 words=6467 msgs=126 dups=1466 hop=36108 labels=fe5ec6b9d320f8e2 result=8132d4a7325d62dc",
	"bfs-dirop-hybrid/async=true/workers=1":                  "sim=3f57db4298ca8b8e/3f42b745f6c1b18b/3f1b5a238cf7f5b4 probes=13244 words=6467 msgs=126 dups=1466 hop=36108 labels=fe5ec6b9d320f8e2 result=c12d4ffd9c40e52d",
	"bfs-dirop-hybrid/async=true/workers=4":                  "sim=3f57db4298ca8b8e/3f42b745f6c1b18b/3f1b5a238cf7f5b4 probes=13244 words=6467 msgs=126 dups=1466 hop=36108 labels=fe5ec6b9d320f8e2 result=c12d4ffd9c40e52d",
	"bfs-bottomup-auto/async=false/workers=1":                "sim=3f65410a3664c0f3/3f37bcb5279499a8/0000000000000000 probes=0 words=13188 msgs=168 dups=0 hop=83664 labels=fe5ec6b9d320f8e2 result=dba04e5444b02c23",
	"bfs-bottomup-auto/async=false/workers=4":                "sim=3f65410a3664c0f3/3f37bcb5279499a8/0000000000000000 probes=0 words=13188 msgs=168 dups=0 hop=83664 labels=fe5ec6b9d320f8e2 result=dba04e5444b02c23",
	"bfs-bottomup-auto/async=true/workers=1":                 "sim=3f63d046d4d0a74b/3f3d381f2b3e721e/3f310d438a6e588c probes=0 words=13188 msgs=168 dups=0 hop=83664 labels=fe5ec6b9d320f8e2 result=58c7f2fd6f34b07b",
	"bfs-bottomup-auto/async=true/workers=4":                 "sim=3f63d046d4d0a74b/3f3d381f2b3e721e/3f310d438a6e588c probes=0 words=13188 msgs=168 dups=0 hop=83664 labels=fe5ec6b9d320f8e2 result=58c7f2fd6f34b07b",
	"bfs-topdown-direct-nocache-dense/async=false/workers=1": "sim=3f784039dd09115a/3f3d6a61a9ef3fa5/0000000000000000 probes=0 words=13440 msgs=168 dups=68371 hop=75712 labels=fe5ec6b9d320f8e2 result=3ceaa8fdc784f2af",
	"bfs-topdown-direct-nocache-dense/async=false/workers=4": "sim=3f784039dd09115a/3f3d6a61a9ef3fa5/0000000000000000 probes=0 words=13440 msgs=168 dups=68371 hop=75712 labels=fe5ec6b9d320f8e2 result=3ceaa8fdc784f2af",
	"bfs-topdown-direct-nocache-dense/async=true/workers=1":  "sim=3f775a68dd51b686/3f3ee2dcbadca316/3f2fab1618c62014 probes=0 words=13440 msgs=168 dups=68371 hop=75712 labels=fe5ec6b9d320f8e2 result=9fcea11c4a13fba6",
	"bfs-topdown-direct-nocache-dense/async=true/workers=4":  "sim=3f775a68dd51b686/3f3ee2dcbadca316/3f2fab1618c62014 probes=0 words=13440 msgs=168 dups=68371 hop=75712 labels=fe5ec6b9d320f8e2 result=9fcea11c4a13fba6",
	"bfs-dirop-hybrid-cores4/async=false/workers=1":          "sim=3f518093011df4a2/3f3d28f96d512ff7/0000000000000000 probes=13244 words=6467 msgs=126 dups=1466 hop=36108 labels=fe5ec6b9d320f8e2 result=48ec8389afd6459f",
	"bfs-dirop-hybrid-cores4/async=false/workers=4":          "sim=3f518093011df4a2/3f3d28f96d512ff7/0000000000000000 probes=13244 words=6467 msgs=126 dups=1466 hop=36108 labels=fe5ec6b9d320f8e2 result=48ec8389afd6459f",
	"bfs-dirop-hybrid-cores4/async=true/workers=1":           "sim=3f5099b52fc0dcb7/3f4018db121c55ec/3f1b5a238cf7f5ac probes=13244 words=6467 msgs=126 dups=1466 hop=36108 labels=fe5ec6b9d320f8e2 result=f3d47c2f576673f6",
	"bfs-dirop-hybrid-cores4/async=true/workers=4":           "sim=3f5099b52fc0dcb7/3f4018db121c55ec/3f1b5a238cf7f5ac probes=13244 words=6467 msgs=126 dups=1466 hop=36108 labels=fe5ec6b9d320f8e2 result=f3d47c2f576673f6",
	"bisearch/async=false/workers=1":                         "sim=3f41c63b8e2094a3/3f3a22ebe845fa12/0000000000000000 probes=2333 words=2254 msgs=92 dups=68 hop=10680 labels=3ec66f8bff15a525 result=37055d84fcad814a",
	"bisearch/async=false/workers=4":                         "sim=3f41c63b8e2094a3/3f3a22ebe845fa12/0000000000000000 probes=2333 words=2254 msgs=92 dups=68 hop=10680 labels=3ec66f8bff15a525 result=37055d84fcad814a",
	"bisearch/async=true/workers=1":                          "sim=3f41940e88fea935/3f3c1a8cb09bb89e/3f02dfd694ccab3e probes=2333 words=2254 msgs=92 dups=68 hop=10680 labels=3ec66f8bff15a525 result=4cf0b63fc39ac845",
	"bisearch/async=true/workers=4":                          "sim=3f41940e88fea935/3f3c1a8cb09bb89e/3f02dfd694ccab3e probes=2333 words=2254 msgs=92 dups=68 hop=10680 labels=3ec66f8bff15a525 result=4cf0b63fc39ac845",
	"bisearch-dirop-hybrid/async=false/workers=1":            "sim=3f44a3c1a9397ae5/3f3fddf81e77c69d/0000000000000000 probes=2333 words=936 msgs=92 dups=68 hop=5408 labels=3ec66f8bff15a525 result=e6639144a87a66a9",
	"bisearch-dirop-hybrid/async=false/workers=4":            "sim=3f44a3c1a9397ae5/3f3fddf81e77c69d/0000000000000000 probes=2333 words=936 msgs=92 dups=68 hop=5408 labels=3ec66f8bff15a525 result=e6639144a87a66a9",
	"bisearch-dirop-hybrid/async=true/workers=1":             "sim=3f4454ffdb7f60d9/3f40ce37aace93f4/3f02dfd694ccab3e probes=2333 words=936 msgs=92 dups=68 hop=5408 labels=3ec66f8bff15a525 result=960af7fd4e1ac981",
	"bisearch-dirop-hybrid/async=true/workers=4":             "sim=3f4454ffdb7f60d9/3f40ce37aace93f4/3f02dfd694ccab3e probes=2333 words=936 msgs=92 dups=68 hop=5408 labels=3ec66f8bff15a525 result=960af7fd4e1ac981",
	"path/async=false/workers=1":                             "sim=3f836318908e51f8/3f4a8e3f6d3ab494/0000000000000000 probes=196991 words=66181 msgs=94 dups=31923 hop=266420 labels=fe5ec6b9d320f8e2 result=3812451670152727 len=7",
	"path/async=false/workers=4":                             "sim=3f836318908e51f8/3f4a8e3f6d3ab494/0000000000000000 probes=196991 words=66181 msgs=94 dups=31923 hop=266420 labels=fe5ec6b9d320f8e2 result=3812451670152727 len=7",
	"path/async=true/workers=1":                              "sim=3f83619a6d78e6b9/3f4ba45aa530cb4f/3f02dfd694ccab3e probes=196991 words=66181 msgs=94 dups=31923 hop=266420 labels=fe5ec6b9d320f8e2 result=7b8b91eb406ca565 len=7",
	"path/async=true/workers=4":                              "sim=3f83619a6d78e6b9/3f4ba45aa530cb4f/3f02dfd694ccab3e probes=196991 words=66181 msgs=94 dups=31923 hop=266420 labels=fe5ec6b9d320f8e2 result=7b8b91eb406ca565 len=7",
	"multibfs-1/async=false/workers=1":                       "sim=3f7ffe515a533ef9/3f4e3da4816cb33e/0000000000000000 probes=0 words=92613 msgs=159 dups=151440 hop=497984 labels=0df0de6caee9ceaf result=5a7c10e6920717ea",
	"multibfs-1/async=false/workers=4":                       "sim=3f7ffe515a533ef9/3f4e3da4816cb33e/0000000000000000 probes=0 words=92613 msgs=159 dups=151440 hop=497984 labels=0df0de6caee9ceaf result=5a7c10e6920717ea",
	"multibfs-1/async=true/workers=1":                        "sim=3f7d407a374d8692/3f44425a4edc1ede/3f380b1aec580eeb probes=0 words=92613 msgs=159 dups=151440 hop=497984 labels=0df0de6caee9ceaf result=fa93b01bb17cdd03",
	"multibfs-1/async=true/workers=4":                        "sim=3f7d407a374d8692/3f44425a4edc1ede/3f380b1aec580eeb probes=0 words=92613 msgs=159 dups=151440 hop=497984 labels=0df0de6caee9ceaf result=fa93b01bb17cdd03",
	"multibfs-64-hybrid/async=false/workers=1":               "sim=3f9bae5fedf624a3/3f6b721e493b19c7/0000000000000000 probes=0 words=499669 msgs=191 dups=660691 hop=2671020 labels=4326fbb4746b66fc result=065bc9797d855e9a",
	"multibfs-64-hybrid/async=false/workers=4":               "sim=3f9bae5fedf624a3/3f6b721e493b19c7/0000000000000000 probes=0 words=499669 msgs=191 dups=660691 hop=2671020 labels=4326fbb4746b66fc result=065bc9797d855e9a",
	"multibfs-64-hybrid/async=true/workers=1":                "sim=3f9890615b7712d5/3f5840dec26da316/3f537b165e2f041d probes=0 words=499669 msgs=191 dups=660691 hop=2671020 labels=4326fbb4746b66fc result=d2c5a7a92364340b",
	"multibfs-64-hybrid/async=true/workers=4":                "sim=3f9890615b7712d5/3f5840dec26da316/3f537b165e2f041d probes=0 words=499669 msgs=191 dups=660691 hop=2671020 labels=4326fbb4746b66fc result=d2c5a7a92364340b",
	"sssp-delta-auto/async=false/workers=1":                  "sim=3f90a9f6cc86dcc4/3f766d27820038b9/0000000000000000 probes=0 words=257489 msgs=1725 dups=378 hop=1416284 labels=b1b0bd45d8f4fc95 result=9fa5409d4fb75dc2",
	"sssp-delta-auto/async=false/workers=4":                  "sim=3f90a9f6cc86dcc4/3f766d27820038b9/0000000000000000 probes=0 words=257489 msgs=1725 dups=378 hop=1416284 labels=b1b0bd45d8f4fc95 result=9fa5409d4fb75dc2",
	"sssp-delta-auto/async=true/workers=1":                   "sim=3f8b9c394fd1b6ba/3f73ced08e3af7d9/3f61f26aa8891a66 probes=0 words=257489 msgs=1725 dups=378 hop=1416284 labels=b1b0bd45d8f4fc95 result=29e7193bb26096fb",
	"sssp-delta-auto/async=true/workers=4":                   "sim=3f8b9c394fd1b6ba/3f73ced08e3af7d9/3f61f26aa8891a66 probes=0 words=257489 msgs=1725 dups=378 hop=1416284 labels=b1b0bd45d8f4fc95 result=29e7193bb26096fb",
	"sssp-delta-128-hybrid/async=false/workers=1":            "sim=3f8d3b1c66d68506/3f66bd3191d4af4e/0000000000000000 probes=0 words=155416 msgs=832 dups=4802 hop=849912 labels=b1b0bd45d8f4fc95 result=91d49e573db925ac",
	"sssp-delta-128-hybrid/async=false/workers=4":            "sim=3f8d3b1c66d68506/3f66bd3191d4af4e/0000000000000000 probes=0 words=155416 msgs=832 dups=4802 hop=849912 labels=b1b0bd45d8f4fc95 result=91d49e573db925ac",
	"sssp-delta-128-hybrid/async=true/workers=1":             "sim=3f89d869a6990c95/3f62b8b9f0513622/3f53e162ee558256 probes=0 words=155416 msgs=832 dups=4802 hop=849912 labels=b1b0bd45d8f4fc95 result=ef53d7976bf5c09d",
	"sssp-delta-128-hybrid/async=true/workers=4":             "sim=3f89d869a6990c95/3f62b8b9f0513622/3f53e162ee558256 probes=0 words=155416 msgs=832 dups=4802 hop=849912 labels=b1b0bd45d8f4fc95 result=ef53d7976bf5c09d",
	"sssp-delta-128-cores4/async=false/workers=1":            "sim=3f8cd04bbea07cbd/3f6bf5b62b38492c/0000000000000000 probes=0 words=272556 msgs=832 dups=4802 hop=1475524 labels=b1b0bd45d8f4fc95 result=c48f5f39ff5435fa",
	"sssp-delta-128-cores4/async=false/workers=4":            "sim=3f8cd04bbea07cbd/3f6bf5b62b38492c/0000000000000000 probes=0 words=272556 msgs=832 dups=4802 hop=1475524 labels=b1b0bd45d8f4fc95 result=c48f5f39ff5435fa",
	"sssp-delta-128-cores4/async=true/workers=1":             "sim=3f881745e083cb3c/3f6460a7224f910d/3f5770086319a46e probes=0 words=272556 msgs=832 dups=4802 hop=1475524 labels=b1b0bd45d8f4fc95 result=e18f89baaf104b66",
	"sssp-delta-128-cores4/async=true/workers=4":             "sim=3f881745e083cb3c/3f6460a7224f910d/3f5770086319a46e probes=0 words=272556 msgs=832 dups=4802 hop=1475524 labels=b1b0bd45d8f4fc95 result=e18f89baaf104b66",
}

// goldenRun is one recorded Part1DCol configuration.
type goldenRun struct {
	name string
	run  func(cl *Cluster, dg, wdg *DistGraph, opts []Option) (string, error)
}

// goldenLine renders the recorded summary of one run.
func goldenLine(simT, simC, simO float64, probes uint64, words, msgs, dups, hop int64, labels, whole any) string {
	return fmt.Sprintf("sim=%016x/%016x/%016x probes=%d words=%d msgs=%d dups=%d hop=%d labels=%016x result=%016x",
		math.Float64bits(simT), math.Float64bits(simC), math.Float64bits(simO),
		probes, words, msgs, dups, hop, jsonHash(labels), jsonHash(whole))
}

func jsonHash(v any) uint64 {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func bfsLine(res *Result) string {
	r := *res
	r.Wall = 0
	return goldenLine(r.SimTime, r.SimComm, r.SimOverlap, r.HashProbes, r.TotalExpandWords+r.TotalFoldWords,
		int64(r.MsgsRecv), r.TotalDups, int64(r.HopBytes), r.Levels, r)
}

func multiLine(res *MultiResult) string {
	r := *res
	r.Wall = 0
	return goldenLine(r.SimTime, r.SimComm, r.SimOverlap, r.HashProbes, r.TotalExpandWords+r.TotalFoldWords,
		int64(r.MsgsRecv), r.TotalDups, int64(r.HopBytes), r.LaneLevels, r)
}

func ssspLine(res *SSSPResult) string {
	r := *res
	r.Wall = 0
	return goldenLine(r.SimTime, r.SimComm, r.SimOverlap, 0, r.TotalExpandWords+r.TotalFoldWords,
		int64(r.MsgsRecv), r.TotalReSettles, int64(r.HopBytes), r.Dist, r)
}

func goldenRuns(src, far Vertex, sources []Vertex) []goldenRun {
	bfsRun := func(extra ...Option) func(*Cluster, *DistGraph, *DistGraph, []Option) (string, error) {
		return func(cl *Cluster, dg, _ *DistGraph, opts []Option) (string, error) {
			res, err := cl.BFS(dg, src, append(opts, extra...)...)
			if err != nil {
				return "", err
			}
			return bfsLine(res), nil
		}
	}
	multiRun := func(lanes int, extra ...Option) func(*Cluster, *DistGraph, *DistGraph, []Option) (string, error) {
		return func(cl *Cluster, dg, _ *DistGraph, opts []Option) (string, error) {
			res, err := cl.MultiBFS(dg, sources[:lanes], append(opts, extra...)...)
			if err != nil {
				return "", err
			}
			return multiLine(res), nil
		}
	}
	ssspRun := func(extra ...Option) func(*Cluster, *DistGraph, *DistGraph, []Option) (string, error) {
		return func(cl *Cluster, _, wdg *DistGraph, opts []Option) (string, error) {
			res, err := cl.SSSP(wdg, src, append(opts, extra...)...)
			if err != nil {
				return "", err
			}
			return ssspLine(res), nil
		}
	}
	return []goldenRun{
		{"bfs-topdown-sparse", bfsRun(WithDirection(TopDown), WithWire(WireSparse))},
		{"bfs-topdown-hybrid", bfsRun(WithDirection(TopDown), WithWire(WireHybrid))},
		{"bfs-dirop-sparse", bfsRun(WithDirection(DirectionOptimizing), WithWire(WireSparse))},
		{"bfs-dirop-hybrid", bfsRun(WithDirection(DirectionOptimizing), WithWire(WireHybrid))},
		{"bfs-bottomup-auto", bfsRun(WithDirection(BottomUp), WithWire(WireAuto))},
		{"bfs-topdown-direct-nocache-dense", bfsRun(WithFold(FoldDirect), WithSentCache(false), WithWire(WireDense))},
		{"bfs-dirop-hybrid-cores4", bfsRun(WithDirection(DirectionOptimizing), WithWire(WireHybrid), WithCores(4))},
		{"bisearch", func(cl *Cluster, dg, _ *DistGraph, opts []Option) (string, error) {
			res, err := cl.BiSearch(dg, src, far, opts...)
			if err != nil {
				return "", err
			}
			return bfsLine(res), nil
		}},
		{"bisearch-dirop-hybrid", func(cl *Cluster, dg, _ *DistGraph, opts []Option) (string, error) {
			res, err := cl.BiSearch(dg, src, far, append(opts, WithDirection(DirectionOptimizing), WithWire(WireHybrid))...)
			if err != nil {
				return "", err
			}
			return bfsLine(res), nil
		}},
		{"path", func(cl *Cluster, dg, _ *DistGraph, opts []Option) (string, error) {
			path, res, err := cl.Path(dg, src, far, opts...)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s len=%d", bfsLine(res), len(path)), nil
		}},
		{"multibfs-1", multiRun(1)},
		{"multibfs-64-hybrid", multiRun(64, WithWire(WireHybrid))},
		{"sssp-delta-auto", ssspRun()},
		{"sssp-delta-128-hybrid", ssspRun(WithDelta(128), WithWire(WireHybrid))},
		{"sssp-delta-128-cores4", ssspRun(WithDelta(128), WithCores(4))},
	}
}

// TestPart1DColGolden replays every recorded configuration on the
// Part1DCol layout (synchronous and overlapped schedules, 1 and 4
// workers) and requires each Result to match its recorded line
// exactly. The graph size is not a multiple of P, so the last rank
// owns a short block.
func TestPart1DColGolden(t *testing.T) {
	const n = 20003
	g, err := Generate(n, 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := GenerateWeighted(n, 10, 77, WithMaxWeight(255))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g, WithPartition(Part1DCol))
	if err != nil {
		t.Fatal(err)
	}
	wdg, err := cl.Distribute(wg, WithPartition(Part1DCol))
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	serial := g.SerialBFS(src)
	far := src
	for v, l := range serial {
		if l != Unreached && l > serial[far] {
			far = Vertex(v)
		}
	}
	sources := make([]Vertex, MaxLanes)
	for i := range sources {
		sources[i] = Vertex((i*7919 + 13) % n)
	}
	mem := fmt.Sprintf("%+v", dg.Memory())
	if want := golden1DCol["memory"]; mem != want {
		t.Errorf("memory:\n got %s\nwant %s", mem, want)
	}
	for _, gr := range goldenRuns(src, far, sources) {
		for _, async := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				key := fmt.Sprintf("%s/async=%v/workers=%d", gr.name, async, workers)
				got, err := gr.run(cl, dg, wdg, []Option{WithAsync(async), WithWorkers(workers)})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if want := golden1DCol[key]; got != want {
					t.Errorf("%s:\n got %q\nwant %q", key, got, want)
				}
			}
		}
	}
}
