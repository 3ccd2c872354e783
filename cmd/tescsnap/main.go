// Command tescsnap builds, inspects and exports the binary snapshot
// files tescd warm-starts from (see docs/PERSISTENCE.md for the
// format). It is the operator-side converter between the text formats
// (edge lists, event files) and the checksummed on-disk form that
// loads in milliseconds with zero index builds.
//
// Usage:
//
//	tescsnap build -graph g.txt [-events ev.txt] [-levels 2] -o g.tescsnap
//	tescsnap inspect g.tescsnap
//	tescsnap export -graph out.txt [-events out-ev.txt] g.tescsnap
//
// build parses the text inputs, optionally precomputes the vicinity
// index for levels 1..-levels (the §4.2 offline step), and writes the
// snapshot atomically. inspect validates every checksum and structural
// invariant and prints a section-by-section summary. export converts a
// snapshot back to the text formats.
package main

import (
	"flag"
	"fmt"
	"os"

	"tesc/internal/graphio"
	"tesc/internal/snapshot"
	"tesc/internal/vicinity"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tescsnap: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tescsnap:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tescsnap build -graph g.txt [-events ev.txt] [-levels H] [-workers N] -o out.tescsnap
  tescsnap inspect file.tescsnap
  tescsnap export [-graph out.txt] [-events out.txt] file.tescsnap`)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("tescsnap build", flag.ExitOnError)
	var (
		graphPath  = fs.String("graph", "", "edge-list graph file (required, gzip-transparent)")
		eventsPath = fs.String("events", "", "optional event occurrence file")
		levels     = fs.Int("levels", 0, "precompute the vicinity index for levels 1..levels (0 = no index)")
		workers    = fs.Int("workers", 0, "index-construction workers (0 = GOMAXPROCS)")
		out        = fs.String("o", "", "output snapshot file (required)")
	)
	fs.Parse(args)
	if *graphPath == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("build requires -graph and -o")
	}
	gf, err := graphio.OpenMaybeGzip(*graphPath)
	if err != nil {
		return err
	}
	g, err := graphio.ReadEdgeList(gf)
	gf.Close()
	if err != nil {
		return err
	}
	snap := &snapshot.Snapshot{Graph: g}
	if *eventsPath != "" {
		ef, err := graphio.OpenMaybeGzip(*eventsPath)
		if err != nil {
			return err
		}
		store, err := graphio.ReadEvents(ef, g.NumNodes())
		ef.Close()
		if err != nil {
			return err
		}
		snap.Store = store
	}
	if *levels > 0 {
		fmt.Fprintf(os.Stderr, "building vicinity index (levels 1..%d)...\n", *levels)
		idx, err := vicinity.Build(g, *levels, vicinity.Options{Workers: *workers})
		if err != nil {
			return err
		}
		snap.Indexes = []*vicinity.Index{idx}
	}
	if _, err := snapshot.SaveFile(*out, snap); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d bytes, %d nodes, %d edges", *out, st.Size(), g.NumNodes(), g.NumEdges())
	if snap.Store != nil {
		fmt.Printf(", %d events", snap.Store.NumEvents())
	}
	if *levels > 0 {
		fmt.Printf(", index h<=%d", *levels)
	}
	fmt.Println()
	return nil
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("tescsnap inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("inspect takes one snapshot file")
	}
	path := fs.Arg(0)
	info, err := snapshot.InspectFile(path)
	if err != nil {
		return err
	}
	snap := info.Snapshot
	fmt.Printf("%s: format v%d, %d sections, all checksums ok\n", path, info.FormatVersion, len(info.Sections))
	for _, s := range info.Sections {
		fmt.Printf("  %s  %10d bytes  crc32 %08x\n", s.Tag, s.Bytes, s.CRC)
	}
	fmt.Printf("graph      %d nodes, %d edges\n", snap.Graph.NumNodes(), snap.Graph.NumEdges())
	fmt.Printf("meta       epoch %d, graph version %d\n", snap.Epoch, snap.GraphVersion)
	if snap.Store != nil {
		fmt.Printf("events     %d events (store epoch %d)\n", snap.Store.NumEvents(), snap.Store.Epoch())
	} else {
		fmt.Println("events     none")
	}
	for _, idx := range snap.Indexes {
		fmt.Printf("index      vicinity levels 1..%d\n", idx.MaxLevel())
	}
	for _, st := range snap.Monitors {
		fmt.Printf("monitor    %s: %q vs %q h=%d policy=%s (%d history entries)\n",
			st.Def.ID, st.Def.A, st.Def.B, st.Def.H, st.Def.Mode, len(st.History))
	}
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("tescsnap export", flag.ExitOnError)
	var (
		graphOut  = fs.String("graph", "", "write the graph as a text edge list here")
		eventsOut = fs.String("events", "", "write the events in ReadEvents format here")
	)
	fs.Parse(args)
	if fs.NArg() != 1 || (*graphOut == "" && *eventsOut == "") {
		fs.Usage()
		return fmt.Errorf("export takes one snapshot file and at least one of -graph/-events")
	}
	snap, err := snapshot.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *graphOut != "" {
		f, err := graphio.CreateMaybeGzip(*graphOut)
		if err != nil {
			return err
		}
		if err := graphio.WriteEdgeList(f, snap.Graph); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d nodes, %d edges\n", *graphOut, snap.Graph.NumNodes(), snap.Graph.NumEdges())
	}
	if *eventsOut != "" {
		if snap.Store == nil {
			return fmt.Errorf("snapshot has no events section")
		}
		f, err := graphio.CreateMaybeGzip(*eventsOut)
		if err != nil {
			return err
		}
		if err := graphio.WriteEvents(f, snap.Store); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d events\n", *eventsOut, snap.Store.NumEvents())
	}
	return nil
}
