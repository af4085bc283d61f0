//! DATALINK control modes (Table 1 of the paper, plus the two new modes the
//! paper contributes).
//!
//! A mode is three attributes: referential integrity (`n`/`r`), read access
//! control (`f`ile system / `d`BMS) and write access control (`f`ile system /
//! `b`locked / `d`BMS). The original DataLinks release shipped `nff`, `rff`,
//! `rfb` and `rdb`; this paper's contribution is update support via the new
//! `rfd` and `rdd` modes (§2.4).

use std::fmt;
use std::str::FromStr;

/// Who controls an access class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessControl {
    /// `f`: the file system's own permission bits decide.
    FileSystem,
    /// `b`: the access is blocked entirely while linked.
    Blocked,
    /// `d`: the DBMS decides, via access tokens.
    Dbms,
}

/// A DATALINK column's control mode. The discriminants are the protocol's
/// `mode` byte (`dl_net::Message::Link`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlMode {
    /// No referential integrity; file system controls everything.
    Nff = 0,
    /// Referential integrity; file system controls read and write.
    Rff = 1,
    /// Referential integrity; FS-controlled read; writes blocked.
    Rfb = 2,
    /// Referential integrity; DBMS-controlled read; writes blocked.
    Rdb = 3,
    /// **New in this paper**: FS-controlled read, DBMS-controlled write.
    Rfd = 4,
    /// **New in this paper**: DBMS-controlled read and write (full control).
    Rdd = 5,
}

impl From<ControlMode> for u8 {
    fn from(mode: ControlMode) -> u8 {
        mode as u8
    }
}

impl TryFrom<u8> for ControlMode {
    type Error = String;

    fn try_from(b: u8) -> Result<ControlMode, String> {
        ControlMode::ALL
            .get(usize::from(b))
            .copied()
            .ok_or_else(|| format!("bad control-mode discriminant {b}"))
    }
}

impl ControlMode {
    pub const ALL: [ControlMode; 6] = [
        ControlMode::Nff,
        ControlMode::Rff,
        ControlMode::Rfb,
        ControlMode::Rdb,
        ControlMode::Rfd,
        ControlMode::Rdd,
    ];

    /// Does the DBMS guarantee referential integrity of the link?
    pub fn referential_integrity(self) -> bool {
        !matches!(self, ControlMode::Nff)
    }

    /// Who controls read access.
    pub fn read_control(self) -> AccessControl {
        match self {
            ControlMode::Rdb | ControlMode::Rdd => AccessControl::Dbms,
            _ => AccessControl::FileSystem,
        }
    }

    /// Who controls write access.
    pub fn write_control(self) -> AccessControl {
        match self {
            ControlMode::Nff | ControlMode::Rff => AccessControl::FileSystem,
            ControlMode::Rfb | ControlMode::Rdb => AccessControl::Blocked,
            ControlMode::Rfd | ControlMode::Rdd => AccessControl::Dbms,
        }
    }

    /// "Full control of the database" per the paper: neither read nor write
    /// is left to the file system.
    pub fn full_control(self) -> bool {
        self.read_control() != AccessControl::FileSystem
            && self.write_control() != AccessControl::FileSystem
    }

    /// True for the two update-capable modes this paper introduces.
    pub fn supports_update(self) -> bool {
        self.write_control() == AccessControl::Dbms
    }

    /// Does linking in this mode change file ownership to the DLFM uid?
    /// (§4: "whenever a file is under full control of DBMS, it takes-over
    /// the file by changing its ownership".)
    pub fn takes_over_at_link(self) -> bool {
        self.full_control()
    }

    /// Does linking mark the file read-only at the file-system level?
    /// All `r*` modes except `rff` do: it both enforces blocked/DBMS write
    /// control and makes the rfd write path fail fast into the upcall
    /// retry protocol (§4.2).
    pub fn read_only_at_link(self) -> bool {
        matches!(self, ControlMode::Rfb | ControlMode::Rdb | ControlMode::Rfd | ControlMode::Rdd)
    }
}

impl fmt::Display for ControlMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ControlMode::Nff => "nff",
            ControlMode::Rff => "rff",
            ControlMode::Rfb => "rfb",
            ControlMode::Rdb => "rdb",
            ControlMode::Rfd => "rfd",
            ControlMode::Rdd => "rdd",
        };
        f.write_str(s)
    }
}

impl FromStr for ControlMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "nff" => Ok(ControlMode::Nff),
            "rff" => Ok(ControlMode::Rff),
            "rfb" => Ok(ControlMode::Rfb),
            "rdb" => Ok(ControlMode::Rdb),
            "rfd" => Ok(ControlMode::Rfd),
            "rdd" => Ok(ControlMode::Rdd),
            other => Err(format!("unknown control mode: {other}")),
        }
    }
}

/// What happens to the file when its link is removed (DB2's ON UNLINK).
/// The discriminants are the protocol's `on_unlink` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnUnlink {
    /// Restore the original owner and permission bits.
    #[default]
    Restore = 0,
    /// Delete the file from the file system.
    Delete = 1,
}

impl From<OnUnlink> for u8 {
    fn from(on_unlink: OnUnlink) -> u8 {
        on_unlink as u8
    }
}

impl TryFrom<u8> for OnUnlink {
    type Error = String;

    fn try_from(b: u8) -> Result<OnUnlink, String> {
        match b {
            0 => Ok(OnUnlink::Restore),
            1 => Ok(OnUnlink::Delete),
            _ => Err(format!("bad on-unlink discriminant {b}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matrix_original_modes() {
        use AccessControl::*;
        // Table 1 of the paper, row by row.
        assert!(!ControlMode::Nff.referential_integrity());
        assert_eq!(ControlMode::Nff.read_control(), FileSystem);
        assert_eq!(ControlMode::Nff.write_control(), FileSystem);

        assert!(ControlMode::Rff.referential_integrity());
        assert_eq!(ControlMode::Rff.read_control(), FileSystem);
        assert_eq!(ControlMode::Rff.write_control(), FileSystem);

        assert!(ControlMode::Rfb.referential_integrity());
        assert_eq!(ControlMode::Rfb.read_control(), FileSystem);
        assert_eq!(ControlMode::Rfb.write_control(), Blocked);

        assert!(ControlMode::Rdb.referential_integrity());
        assert_eq!(ControlMode::Rdb.read_control(), Dbms);
        assert_eq!(ControlMode::Rdb.write_control(), Blocked);
    }

    #[test]
    fn new_update_modes() {
        use AccessControl::*;
        assert_eq!(ControlMode::Rfd.read_control(), FileSystem);
        assert_eq!(ControlMode::Rfd.write_control(), Dbms);
        assert_eq!(ControlMode::Rdd.read_control(), Dbms);
        assert_eq!(ControlMode::Rdd.write_control(), Dbms);
        assert!(ControlMode::Rfd.supports_update());
        assert!(ControlMode::Rdd.supports_update());
        assert!(!ControlMode::Rfb.supports_update());
    }

    #[test]
    fn full_control_definition() {
        assert!(ControlMode::Rdb.full_control());
        assert!(ControlMode::Rdd.full_control());
        assert!(!ControlMode::Rfd.full_control());
        assert!(!ControlMode::Rff.full_control());
        assert!(!ControlMode::Nff.full_control());
    }

    #[test]
    fn link_time_constraints() {
        assert!(ControlMode::Rdd.takes_over_at_link());
        assert!(ControlMode::Rdb.takes_over_at_link());
        assert!(!ControlMode::Rfd.takes_over_at_link());
        assert!(ControlMode::Rfd.read_only_at_link());
        assert!(ControlMode::Rdd.read_only_at_link());
        assert!(!ControlMode::Rff.read_only_at_link());
        assert!(!ControlMode::Nff.read_only_at_link());
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for mode in ControlMode::ALL {
            assert_eq!(mode.to_string().parse::<ControlMode>().unwrap(), mode);
        }
        assert!("xyz".parse::<ControlMode>().is_err());
    }

    #[test]
    fn protocol_bytes_roundtrip_and_reject_unknown_discriminants() {
        for mode in ControlMode::ALL {
            assert_eq!(ControlMode::try_from(u8::from(mode)), Ok(mode));
        }
        assert!(ControlMode::try_from(6).is_err());
        for on_unlink in [OnUnlink::Restore, OnUnlink::Delete] {
            assert_eq!(OnUnlink::try_from(u8::from(on_unlink)), Ok(on_unlink));
        }
        assert!(OnUnlink::try_from(2).is_err());
    }
}
