// Command memtree exposes the repository's Merkle-tree library as a
// standalone file-integrity utility: build a hash tree over a file, keep
// only the root, and later verify the file — or just one chunk of it,
// with a logarithmic-size inclusion proof — against that root.
//
//	memtree build  -f data.bin -tree data.tree            # prints the root
//	memtree verify -f data.bin -tree data.tree -root <hex>
//	memtree prove  -f data.bin -tree data.tree -chunk 17  # proof on stdout
//	memtree check  -proof proof.json -root <hex>
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"memverify/internal/hashalg"
	"memverify/internal/htree"
	"memverify/internal/mem"
)

const (
	chunkSize = 64
	hashSize  = 16
)

// proofFile is the JSON shape of an exported proof.
type proofFile struct {
	Algorithm string   `json:"algorithm"`
	ChunkSize int      `json:"chunkSize"`
	HashSize  int      `json:"hashSize"`
	DataBytes uint64   `json:"dataBytes"`
	Chunk     uint64   `json:"chunk"`
	Path      []uint64 `json:"path"`
	Chunks    []string `json:"chunks"` // hex
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dataPath := fs.String("f", "", "data file")
	treePath := fs.String("tree", "", "tree sidecar file")
	rootHex := fs.String("root", "", "expected root hash (hex)")
	chunk := fs.Uint64("chunk", 0, "data chunk index (prove)")
	proofPath := fs.String("proof", "", "proof file (check)")
	algName := fs.String("alg", "sha1", "hash algorithm: sha256, md5, sha1, fnv128")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	alg, err := hashalg.New(*algName)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "build":
		tr, _ := load(*dataPath, alg)
		tr.Build()
		if err := os.WriteFile(*treePath, sidecar(tr), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("root %s\n", hex.EncodeToString(tr.Root()))

	case "verify":
		tr, _ := load(*dataPath, alg)
		if err := loadSidecar(tr, *treePath); err != nil {
			fatal(err)
		}
		root, err := hex.DecodeString(*rootHex)
		if err != nil || len(root) != hashSize {
			fatal(fmt.Errorf("need -root as %d hex bytes", hashSize))
		}
		tr.SetRoot(root)
		if err := tr.VerifyAll(); err != nil {
			fatal(fmt.Errorf("INTEGRITY FAILURE: %w", err))
		}
		fmt.Println("ok: every chunk verifies against the root")

	case "prove":
		tr, size := load(*dataPath, alg)
		if err := loadSidecar(tr, *treePath); err != nil {
			fatal(err)
		}
		c := tr.Layout.InteriorChunks + *chunk
		if c >= tr.Layout.TotalChunks {
			fatal(fmt.Errorf("chunk %d out of range (%d data chunks)", *chunk, tr.Layout.DataChunks))
		}
		p := tr.Prove(c)
		out := proofFile{
			Algorithm: *algName, ChunkSize: chunkSize, HashSize: hashSize,
			DataBytes: size, Chunk: p.Chunk, Path: p.Path,
		}
		for _, ch := range p.Chunks {
			out.Chunks = append(out.Chunks, hex.EncodeToString(ch))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}

	case "check":
		raw, err := os.ReadFile(*proofPath)
		if err != nil {
			fatal(err)
		}
		var pf proofFile
		if err := json.Unmarshal(raw, &pf); err != nil {
			fatal(err)
		}
		alg, err := hashalg.New(pf.Algorithm)
		if err != nil {
			fatal(err)
		}
		layout, err := htree.NewLayout(pf.ChunkSize, pf.HashSize, pf.DataBytes)
		if err != nil {
			fatal(err)
		}
		root, err := hex.DecodeString(*rootHex)
		if err != nil || len(root) != pf.HashSize {
			fatal(fmt.Errorf("need -root as %d hex bytes", pf.HashSize))
		}
		proof := &htree.Proof{Chunk: pf.Chunk, Path: pf.Path}
		for _, h := range pf.Chunks {
			b, err := hex.DecodeString(h)
			if err != nil {
				fatal(err)
			}
			proof.Chunks = append(proof.Chunks, b)
		}
		if err := htree.CheckProof(layout, alg, root, proof); err != nil {
			fatal(fmt.Errorf("PROOF REJECTED: %w", err))
		}
		fmt.Printf("ok: chunk %d authenticated against the root\n", pf.Chunk-layout.InteriorChunks)

	default:
		usage()
	}
}

// load builds a tree over the file's contents (tree nodes unpopulated).
func load(path string, alg hashalg.Algorithm) (*htree.Tree, uint64) {
	if path == "" {
		fatal(fmt.Errorf("missing -f"))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if len(data) == 0 {
		fatal(fmt.Errorf("%s is empty", path))
	}
	layout, err := htree.NewLayout(chunkSize, hashSize, uint64(len(data)))
	if err != nil {
		fatal(err)
	}
	m := mem.NewSparse()
	m.Write(layout.DataStart(), data)
	return htree.NewTree(layout, alg, m), uint64(len(data))
}

// sidecar serializes the interior (hash) chunks.
func sidecar(tr *htree.Tree) []byte {
	out := make([]byte, tr.Layout.DataStart())
	tr.Memory().Read(0, out)
	return out
}

// loadSidecar installs previously built interior chunks.
func loadSidecar(tr *htree.Tree, path string) error {
	if path == "" {
		return fmt.Errorf("missing -tree")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if uint64(len(raw)) != tr.Layout.DataStart() {
		return fmt.Errorf("tree sidecar is %d bytes, want %d", len(raw), tr.Layout.DataStart())
	}
	// Write the interior region into the tree's memory.
	tr.Memory().Write(0, raw)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: memtree build|verify|prove|check [flags]")
	os.Exit(2)
}
