// Command gengraph emits synthetic graphs to disk, either a named dataset
// profile (Table 2 stand-ins) or a raw generator.
//
// Usage:
//
//	gengraph -profile synth-twitter -scale 800 -out twitter.csr
//	gengraph -gen pa -n 100000 -deg 10 -weights wc -out pa.txt -format text
//	gengraph -gen er -n 10000 -m 100000 -weights uniform:0.01 -out er.csr
//
// -format csr (the default) writes OPIMG2, the binary format opimd and
// every CLI load via mmap; -format text writes the edge-list interchange
// format.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/reprolab/opim"
	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
)

func main() {
	var (
		profile = flag.String("profile", "", "dataset profile name (overrides -gen)")
		scale   = flag.Int("scale", 0, "profile scale divisor (0 = default)")
		genName = flag.String("gen", "pa", "generator: pa | er | ws | grid | sbm | cm")
		degFile = flag.String("degfile", "", "degree-sequence file for cm: one 'outdeg indeg' pair per line")
		n       = flag.Int("n", 10000, "node count (pa/er/ws)")
		m       = flag.Int64("m", 0, "edge count (er; 0 = 10n)")
		deg     = flag.Int("deg", 10, "out-degree (pa) / ring degree (ws)")
		mix     = flag.Float64("mix", 0.15, "uniform-mixing probability (pa)")
		beta    = flag.Float64("beta", 0.2, "rewire probability (ws)")
		rows    = flag.Int("rows", 100, "grid rows")
		cols    = flag.Int("cols", 100, "grid cols")
		blocks  = flag.Int("blocks", 4, "communities (sbm)")
		pIn     = flag.Float64("pin", 0.05, "within-community link probability (sbm)")
		pOut    = flag.Float64("pout", 0.005, "across-community link probability (sbm)")
		weights = flag.String("weights", "wc", "wc | uniform:<p> | trivalency | none")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "", "output path (required)")
		format  = flag.String("format", "csr", "csr | text")
	)
	flag.Parse()
	if *out == "" {
		fatalf("-out is required")
	}
	write := map[string]func(io.Writer, *graph.Graph) error{
		"csr":  graph.WriteCSR,
		"text": graph.WriteText,
	}[*format]
	if write == nil {
		fatalf("unknown format %q (want csr or text)", *format)
	}

	var g *opim.Graph
	var err error
	if *profile != "" {
		// Profiles route through GraphSpec so gengraph resolves a profile
		// name exactly like opimd/opimcli would for the same spec string.
		spec := cliutil.GraphSpec{Profile: *profile, Scale: *scale, Seed: *seed}
		g, _, err = spec.Load()
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		switch *genName {
		case "pa":
			g, err = gen.PreferentialAttachment(int32(*n), *deg, *mix, *seed)
		case "er":
			mm := *m
			if mm == 0 {
				mm = int64(*n) * 10
			}
			g, err = gen.ErdosRenyi(int32(*n), mm, *seed)
		case "ws":
			g, err = gen.WattsStrogatz(int32(*n), *deg, *beta, *seed)
		case "grid":
			g, err = gen.Grid(int32(*rows), int32(*cols))
		case "sbm":
			g, err = gen.StochasticBlock(int32(*n), *blocks, *pIn, *pOut, *seed)
		case "cm":
			var outDeg, inDeg []int32
			outDeg, inDeg, err = readDegreeFile(*degFile)
			if err == nil {
				g, err = gen.ConfigurationModel(outDeg, inDeg, *seed)
			}
		default:
			fatalf("unknown generator %q", *genName)
		}
		if err != nil {
			fatalf("%v", err)
		}
		g, err = cliutil.ApplyWeights(g, *weights, *seed+1)
		if err != nil {
			fatalf("%v", err)
		}
	}

	st := g.ComputeStats()
	fmt.Printf("generated: n=%d m=%d avg-outdeg=%.2f max-indeg=%d\n", st.N, st.M, st.AvgOutDeg, st.MaxInDeg)

	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := write(f, g); err != nil {
		fatalf("writing %s: %v", *out, err)
	}
	// The fingerprint lets operators check that a graph registered in an
	// opimd catalog (or named in a session checkpoint) is this exact file.
	fmt.Printf("wrote %s (%s) fingerprint=%s\n", *out, *format, g.Fingerprint())
}

// readDegreeFile parses one "outdeg indeg" pair per line ('#' comments and
// blank lines ignored).
func readDegreeFile(path string) (outDeg, inDeg []int32, err error) {
	if path == "" {
		return nil, nil, fmt.Errorf("-gen cm requires -degfile")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var o, i int32
		if _, err := fmt.Sscanf(line, "%d %d", &o, &i); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		outDeg = append(outDeg, o)
		inDeg = append(inDeg, i)
	}
	return outDeg, inDeg, sc.Err()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gengraph: "+format+"\n", args...)
	os.Exit(1)
}
