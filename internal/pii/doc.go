// Package pii implements the plaintext PII detection of §6.1/§6.2: given
// the PII known for a device (identifiers assigned at manufacture plus
// personal information supplied at account registration), it searches
// network payloads for those values under the encodings leaky firmware
// actually uses. Each item is searched as:
//
//   - plain: the value itself;
//   - base64 and base64url: standard and URL-safe padded base64;
//   - hex: hexadecimal of the value's bytes;
//   - urlescape: url.QueryEscape, when that changes the value;
//   - nocolon and dashes: a MAC address with its colons removed or
//     replaced by dashes;
//   - plusjoined and concat: a value containing spaces with them
//     replaced by '+' or removed.
//
// Encoded forms shorter than four bytes are not searched.
//
// Matching is case-insensitive, and exactly as if both the payload and
// every needle were passed through strings.ToLower: the payload is read
// rune by rune, an invalid byte reads as U+FFFD, and each rune is
// lowered with unicode.ToLower. Two non-ASCII runes lower into ASCII:
// U+0130 (LATIN CAPITAL LETTER I WITH DOT ABOVE) to 'i' and U+212A
// (KELVIN SIGN) to 'k', so "İD" in a payload matches a needle "id".
// The Scanner compiles all needles of a corpus into one automaton and
// reads each payload byte once, without making a lower-cased copy.
package pii
