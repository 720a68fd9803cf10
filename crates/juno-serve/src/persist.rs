//! Whole-fleet persistence: the `SHRD` snapshot container.
//!
//! A fleet snapshot reuses the container format of `juno-data`'s `snapshot`
//! module with engine kind [`KIND_SHARD`]:
//!
//! * a `MANI` manifest section — format version, ownership mode (global-id
//!   vs mapped), the [`ShardRouter`], the shard count and the per-shard live
//!   counts (validated on restore);
//! * for mapped fleets, an `IMAP` section with the per-shard local→global
//!   id maps;
//! * one `S000`, `S001`, … section per shard, each holding that shard
//!   engine's **own** snapshot bytes verbatim (so every engine keeps its
//!   own format and checksums — the fleet layer only frames them).
//!
//! Each shard section is a `u64::MAX` sentinel, a `u32` framing version and
//! a `u32` pad length followed by that many zero bytes, placing the engine
//! bytes at a 64-byte-aligned absolute file offset — the alignment the
//! engines' mapped hot sections assume, so a fleet snapshot can be served
//! zero-copy from an mmap'd file. Readers accept only the current manifest
//! and framing versions, and only `SHRD` containers.
//!
//! One decoder (`decode_fleet`) serves both restores over an [`Mmap`]: a
//! copy restore checksums every section and restores each shard engine from
//! its bytes; a mapped restore leaves the shard sections lazy and restores
//! each engine zero-copy from its region of the map.

use crate::router::{ShardRouter, MAX_SHARDS};
use crate::shard::{FleetReader, ShardState};
use juno_common::error::{Error, Result};
use juno_common::index::AnnIndex;
use juno_common::mmap::{Mmap, ResidencyConfig};
use juno_data::snapshot::{
    kind, MappedSnapshot, SectionReader, SectionWriter, SnapshotWriter, CONTAINER_HEADER_LEN,
    SECTION_PREFIX_LEN,
};
use std::sync::Arc;

/// The engine-kind word of fleet snapshots.
pub const KIND_SHARD: u32 = kind(*b"SHRD");

/// The manifest layout version written inside `MANI`.
const MANIFEST_VERSION: u32 = 1;

/// Sentinel leading every shard section.
const SHARD_SECTION_SENTINEL: u64 = u64::MAX;

/// Version of the aligned shard-section framing.
const SHARD_SECTION_VERSION: u32 = 2;

/// Bytes of the framing header (sentinel + version + pad length).
const SHARD_FRAME_HEADER: usize = 16;

/// Alignment of the embedded engine bytes within the fleet file — matches
/// the alignment the engines' mapped hot sections are encoded against.
const SHARD_ALIGN: usize = 64;

/// The per-shard section tag: `S` followed by three decimal digits.
fn shard_tag(s: usize) -> [u8; 4] {
    debug_assert!(s < MAX_SHARDS);
    [
        b'S',
        b'0' + (s / 100) as u8,
        b'0' + ((s / 10) % 10) as u8,
        b'0' + (s % 10) as u8,
    ]
}

fn is_shard_tag(tag: &[u8; 4]) -> bool {
    tag[0] == b'S' && tag[1..].iter().all(u8::is_ascii_digit)
}

/// Serialises a pinned fleet view into `SHRD` container bytes.
pub(crate) fn encode_fleet<I: AnnIndex>(
    reader: &FleetReader<I>,
    router: ShardRouter,
) -> Result<Vec<u8>> {
    let num_shards = reader.num_shards();
    let mapped = reader.shard(0).id_map().is_some();
    let mut writer = SnapshotWriter::new(KIND_SHARD);
    // The shard-section padding depends on each payload's absolute file
    // offset, so the running offset is tracked section by section.
    let mut abs = CONTAINER_HEADER_LEN;

    let mut mani = SectionWriter::new();
    mani.put_u32(MANIFEST_VERSION);
    mani.put_u8(mapped as u8);
    router.encode(&mut mani);
    mani.put_u64(num_shards as u64);
    let lens: Vec<u64> = (0..num_shards)
        .map(|s| reader.shard(s).index().len() as u64)
        .collect();
    mani.put_u64s(&lens);
    abs += SECTION_PREFIX_LEN + mani.len();
    writer.add_section(*b"MANI", mani);

    if mapped {
        let mut imap = SectionWriter::new();
        imap.put_u64(num_shards as u64);
        for s in 0..num_shards {
            let map = reader
                .shard(s)
                .id_map()
                .ok_or_else(|| Error::invalid_config("fleet mixes mapped and global-id shards"))?;
            imap.put_u64s(map);
        }
        abs += SECTION_PREFIX_LEN + imap.len();
        writer.add_section(*b"IMAP", imap);
    }

    for s in 0..num_shards {
        let sub = reader.shard(s).index().snapshot()?;
        let mut section = SectionWriter::new();
        // Pad so the engine bytes land 64-byte-aligned in the fleet file,
        // preserving the alignment their own mapped sections were encoded
        // against (an engine snapshot always starts at offset 0 of its own
        // file, which is aligned by definition).
        let payload_abs = abs + SECTION_PREFIX_LEN;
        let pad = (SHARD_ALIGN - (payload_abs + SHARD_FRAME_HEADER) % SHARD_ALIGN) % SHARD_ALIGN;
        section.put_u64(SHARD_SECTION_SENTINEL);
        section.put_u32(SHARD_SECTION_VERSION);
        section.put_u32(pad as u32);
        section.put_raw(&vec![0u8; pad]);
        section.put_raw(&sub);
        abs += SECTION_PREFIX_LEN + section.len();
        writer.add_section(shard_tag(s), section);
    }
    Ok(writer.finish())
}

/// The offset of the embedded engine snapshot within shard `s`'s section
/// payload (it runs to the payload's end), after checking the framing.
fn shard_engine_offset(s: usize, payload: &[u8]) -> Result<usize> {
    if payload.len() < SHARD_FRAME_HEADER || payload[..8] != SHARD_SECTION_SENTINEL.to_le_bytes() {
        return Err(corrupted(format!("shard {s} section is not framed")));
    }
    let fmt = u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice"));
    if fmt != SHARD_SECTION_VERSION {
        return Err(corrupted(format!(
            "unknown shard section framing {fmt} (reader supports {SHARD_SECTION_VERSION})"
        )));
    }
    let pad = u32::from_le_bytes(payload[12..16].try_into().expect("4-byte slice")) as usize;
    if pad > payload.len() - SHARD_FRAME_HEADER {
        return Err(corrupted(format!(
            "shard {s} section padding overruns the payload"
        )));
    }
    Ok(SHARD_FRAME_HEADER + pad)
}

/// The outcome of decoding a fleet snapshot: the shard states to publish
/// and the router recorded in the manifest.
pub(crate) struct DecodedFleet<I> {
    pub states: Vec<ShardState<I>>,
    pub router: ShardRouter,
}

fn corrupted(msg: impl std::fmt::Display) -> Error {
    Error::corrupted(format!("sharded snapshot: {msg}"))
}

/// Decodes the `SHRD` snapshot held by `map` into shard states, restoring
/// each shard into a clone of `prototype`.
///
/// Without a `residency` budget this is the copy restore: every section is
/// checksummed and each shard engine restores from its own bytes
/// ([`AnnIndex::restore`]), so at most one shard's payload is held twice at
/// any moment. With one, the shard sections stay lazy and each engine
/// restores zero-copy from its aligned region of the map
/// ([`AnnIndex::restore_mapped`]; engines without mapped support copy).
///
/// Fully validates before returning, so a caller can swap its state
/// atomically: on error nothing has been published.
pub(crate) fn decode_fleet<I: AnnIndex + Clone>(
    map: &Arc<Mmap>,
    prototype: &I,
    base_epoch: u64,
    residency: Option<&ResidencyConfig>,
) -> Result<DecodedFleet<I>> {
    let lazy = |tag: &[u8; 4]| residency.is_some() && is_shard_tag(tag);
    let snap = MappedSnapshot::parse(map.clone(), 0, map.len(), lazy)?;
    if snap.kind() != KIND_SHARD {
        return Err(corrupted(format!(
            "container kind {:#010x} is not a fleet snapshot",
            snap.kind()
        )));
    }
    let mut mani = snap.section_reader(*b"MANI")?;
    let manifest = parse_manifest(&mut mani)?;
    let id_maps: Option<Vec<Arc<Vec<u64>>>> = if manifest.mapped {
        let mut imap = snap.section_reader(*b"IMAP")?;
        Some(parse_id_maps(&mut imap, manifest.num_shards)?)
    } else {
        None
    };

    let mut states = Vec::with_capacity(manifest.num_shards);
    for s in 0..manifest.num_shards {
        let (off, len) = snap.section_range(shard_tag(s))?;
        let section = &map.as_slice()[off..off + len];
        let at = shard_engine_offset(s, section)?;
        let mut engine = prototype.clone();
        match residency {
            None => engine.restore(&section[at..])?,
            Some(residency) => engine.restore_mapped(map, off + at, len - at, residency)?,
        }
        let id_map = id_maps.as_ref().map(|maps| maps[s].clone());
        validate_shard(s, &engine, &manifest, id_map.as_deref())?;
        states.push(ShardState::new(engine, base_epoch, id_map));
    }
    Ok(DecodedFleet {
        states,
        router: manifest.router,
    })
}

/// The decoded `MANI` section.
struct Manifest {
    mapped: bool,
    router: ShardRouter,
    num_shards: usize,
    lens: Vec<u64>,
}

fn parse_manifest(mani: &mut SectionReader<'_>) -> Result<Manifest> {
    let version = mani.get_u32()?;
    if version != MANIFEST_VERSION {
        return Err(corrupted(format!(
            "unknown manifest version {version} (reader supports {MANIFEST_VERSION})"
        )));
    }
    let mapped = match mani.get_u8()? {
        0 => false,
        1 => true,
        other => return Err(corrupted(format!("invalid ownership-mode byte {other}"))),
    };
    let router = ShardRouter::decode(mani)?;
    let num_shards = mani.get_usize()?;
    if num_shards == 0 || num_shards > MAX_SHARDS {
        return Err(corrupted(format!("invalid shard count {num_shards}")));
    }
    let lens = mani.get_u64s()?;
    if lens.len() != num_shards {
        return Err(corrupted(
            "per-shard length table does not match shard count",
        ));
    }
    mani.expect_end()?;
    Ok(Manifest {
        mapped,
        router,
        num_shards,
        lens,
    })
}

fn parse_id_maps(imap: &mut SectionReader<'_>, num_shards: usize) -> Result<Vec<Arc<Vec<u64>>>> {
    let count = imap.get_usize()?;
    if count != num_shards {
        return Err(corrupted("id-map table does not match shard count"));
    }
    let maps = (0..num_shards)
        .map(|_| imap.get_u64s().map(Arc::new))
        .collect::<Result<Vec<_>>>()?;
    imap.expect_end()?;
    // The same invariant `from_prebuilt` enforces: a global id may be
    // owned by at most one shard, or merged result sets would contain
    // duplicates.
    let mut all_ids: Vec<u64> = maps.iter().flat_map(|m| m.iter().copied()).collect();
    all_ids.sort_unstable();
    if all_ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(corrupted("global ids collide across shard id maps"));
    }
    Ok(maps)
}

/// Cross-checks one restored shard engine against the manifest.
fn validate_shard<I: AnnIndex>(
    s: usize,
    engine: &I,
    manifest: &Manifest,
    id_map: Option<&Vec<u64>>,
) -> Result<()> {
    if engine.len() as u64 != manifest.lens[s] {
        return Err(corrupted(format!(
            "shard {s} restored {} live vectors, manifest recorded {}",
            engine.len(),
            manifest.lens[s]
        )));
    }
    if let Some(map) = id_map {
        if map.len() != engine.len() {
            return Err(corrupted(format!(
                "shard {s} id map covers {} ids for {} vectors",
                map.len(),
                engine.len()
            )));
        }
    } else {
        // Global-id fleets maintain the invariant that every live id is
        // owned by the shard the router assigns it to (construction and
        // every insert/remove preserve it). A checksum-valid snapshot
        // violating it — e.g. one shard's payload duplicated into
        // another's section — would serve duplicate results and ids
        // that `remove` can never reach, so reject it here. This also
        // guarantees cross-shard live-id disjointness.
        for id in engine.ids() {
            let owner = manifest.router.route(id, manifest.num_shards);
            if owner != s {
                return Err(corrupted(format!(
                    "shard {s} holds live id {id}, which the router assigns to \
                     shard {owner}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_tags_are_unique_three_digit_ascii() {
        assert_eq!(&shard_tag(0), b"S000");
        assert_eq!(&shard_tag(7), b"S007");
        assert_eq!(&shard_tag(42), b"S042");
        assert_eq!(&shard_tag(998), b"S998");
        let mut seen = std::collections::HashSet::new();
        for s in 0..MAX_SHARDS {
            assert!(seen.insert(shard_tag(s)), "duplicate tag for shard {s}");
        }
    }
}
