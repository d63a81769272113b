package ingest

import (
	"archive/tar"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// Upload limits. A tiny-scale export is ~3 MB; the paper-scale campaign
// is a few GB. The caps below reject runaway or hostile archives while
// leaving an order of magnitude of headroom over any real capture tree.
const (
	// MaxUploadFiles caps the number of files in one uploaded archive.
	MaxUploadFiles = 100_000
	// MaxUploadBytes caps the unpacked size of one uploaded archive.
	MaxUploadBytes = 32 << 30 // 32 GiB
)

// ErrUploadTooLarge marks an archive rejected for exceeding a file or
// byte limit; the upload API maps it to 413 Request Entity Too Large,
// distinct from the 400 a malformed archive earns. Test with errors.Is.
var ErrUploadTooLarge = errors.New("upload exceeds limit")

// UnpackTar extracts a tar stream holding a Mon(IoT)r-style capture
// directory (as produced by `tar -cf - -C <exportdir> .`) into dst,
// creating dst if needed. It is the receiving half of the moniotrd
// upload API: the unpacked tree is handed straight to Open, typically in
// streaming mode so the daemon's heap stays bounded by the files in
// flight rather than the campaign.
//
// Only regular files named *.pcap or *.labels (and the directories
// leading to them) are materialized; anything else — symlinks, device
// nodes, PAX global headers, stray files — is skipped and counted.
// Entry names are normalized and must stay inside dst: absolute paths
// and ".." traversal are rejected outright, not skipped, so a hostile
// archive fails loudly. Returns the number of capture files written,
// their unpacked byte total, and the number of skipped entries.
func UnpackTar(dst string, r io.Reader) (files int, bytes int64, skipped int, err error) {
	return UnpackTarLimited(dst, r, MaxUploadFiles, MaxUploadBytes)
}

// UnpackTarLimited is UnpackTar under caller-chosen caps: at most
// maxFiles capture files and maxBytes unpacked bytes (non-positive
// values fall back to the package defaults). Exceeding either cap
// returns an error wrapping ErrUploadTooLarge.
func UnpackTarLimited(dst string, r io.Reader, maxFiles int, maxBytes int64) (files int, bytes int64, skipped int, err error) {
	if maxFiles <= 0 {
		maxFiles = MaxUploadFiles
	}
	if maxBytes <= 0 {
		maxBytes = MaxUploadBytes
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, 0, 0, fmt.Errorf("ingest: unpack: %w", err)
	}
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return files, bytes, skipped, nil
		}
		if err != nil {
			return files, bytes, skipped, fmt.Errorf("ingest: unpack: %w", err)
		}
		name := path.Clean(strings.TrimPrefix(hdr.Name, "./"))
		if name == "." || name == "" {
			continue
		}
		if path.IsAbs(name) || name == ".." || strings.HasPrefix(name, "../") {
			return files, bytes, skipped, fmt.Errorf("ingest: unpack: unsafe path %q in archive", hdr.Name)
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			continue // parents are created per file below
		case tar.TypeReg:
		default:
			skipped++
			continue
		}
		if !strings.HasSuffix(name, ".pcap") && !strings.HasSuffix(name, ".labels") {
			skipped++
			continue
		}
		if files >= maxFiles {
			return files, bytes, skipped, fmt.Errorf("ingest: unpack: archive exceeds %d files: %w", maxFiles, ErrUploadTooLarge)
		}
		target := filepath.Join(dst, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return files, bytes, skipped, fmt.Errorf("ingest: unpack: %w", err)
		}
		f, err := os.Create(target)
		if err != nil {
			return files, bytes, skipped, fmt.Errorf("ingest: unpack: %w", err)
		}
		n, err := io.Copy(f, io.LimitReader(tr, maxBytes-bytes+1))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return files, bytes, skipped, fmt.Errorf("ingest: unpack %s: %w", name, err)
		}
		bytes += n
		if bytes > maxBytes {
			return files, bytes, skipped, fmt.Errorf("ingest: unpack: archive exceeds %s unpacked: %w", humanBytes(maxBytes), ErrUploadTooLarge)
		}
		files++
	}
}

func humanBytes(n int64) string {
	if n >= 1<<30 && n%(1<<30) == 0 {
		return fmt.Sprintf("%d GiB", n>>30)
	}
	return fmt.Sprintf("%d bytes", n)
}
