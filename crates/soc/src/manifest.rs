//! Manifest-driven machine configuration: parse a small TOML or JSON
//! document declaring the core, SRAM size, and device placements, and
//! build a [`Machine`] with exactly those devices on its bus.
//!
//! The build environment is offline, so the TOML reader is a hand-rolled
//! subset (the same policy as the in-tree `rand`/`proptest` compat
//! crates): enough for `[machine]` + repeated `[[device]]` tables of
//! scalar keys. JSON manifests go through the workspace's JSON codec,
//! [`cheriot_core::trace::json`], and must have the equivalent object
//! shape.
//!
//! # TOML manifest
//!
//! ```toml
//! [machine]
//! core = "ibex"          # "ibex" | "flute"
//! sram = 0x80000         # bytes (optional, default 512 KiB)
//! intc = 0x85000000      # interrupt-controller window (optional)
//!
//! [[device]]
//! kind = "uart"          # "uart" | "timer" | "dma" | "net"
//! base = 0x82000000      # 4 KiB-aligned MMIO window
//! irq  = 0               # interrupt line (optional)
//! ```
//!
//! # JSON manifest
//!
//! ```json
//! {"machine": {"core": "ibex"},
//!  "devices": [{"kind": "uart", "base": "0x82000000", "irq": 0}]}
//! ```
//!
//! (Integers may be JSON numbers or `"0x"`-prefixed strings — JSON has
//! no hex literals and MMIO bases are unreadable in decimal.)

use crate::devices::{DmaEngine, LiteTimer, NetLoopback};
use cheriot_core::bus::{DeviceBus, MmioDevice, Uart};
use cheriot_core::machine::{layout, Machine, MachineConfig};
use cheriot_core::pipeline::CoreModel;
use cheriot_core::trace::json::{self, Json};
use cheriot_core::CoreKind;
use std::fmt;

/// A manifest error: what went wrong and (for parse errors) on which
/// line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based source line, when the error is tied to one.
    pub line: Option<usize>,
}

impl ManifestError {
    fn new(msg: impl Into<String>) -> ManifestError {
        ManifestError {
            msg: msg.into(),
            line: None,
        }
    }

    fn at(line: usize, msg: impl Into<String>) -> ManifestError {
        ManifestError {
            msg: msg.into(),
            line: Some(line),
        }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "manifest line {n}: {}", self.msg),
            None => write!(f, "manifest: {}", self.msg),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One declared device.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Device kind: `uart`, `timer`, `dma`, or `net`.
    pub kind: String,
    /// MMIO window base (4 KiB aligned).
    pub base: u32,
    /// Interrupt line, if the device is wired to one.
    pub irq: Option<u32>,
}

impl DeviceSpec {
    /// Applies one key of a `[[device]]` table / `"devices"` entry.
    fn set_key(&mut self, key: &str, v: &Json) -> Result<(), String> {
        match key {
            "kind" => self.kind = scalar_str(v, "device.kind")?.to_string(),
            "base" => self.base = scalar_u32(v, "device.base")?,
            "irq" => self.irq = Some(scalar_u32(v, "device.irq")?),
            other => return Err(format!("unknown device key `{other}`")),
        }
        Ok(())
    }
}

/// A parsed machine manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineSpec {
    /// Core model (Ibex or Flute class).
    pub core: CoreKind,
    /// SRAM size override in bytes (manifest `sram`).
    pub sram_size: Option<u32>,
    /// Interrupt-controller window base (`None` = the default
    /// [`layout::INTC_BASE`]).
    pub intc_base: Option<u32>,
    /// Devices to attach, in declaration order (bus ids follow it).
    pub devices: Vec<DeviceSpec>,
}

impl Default for MachineSpec {
    /// The default platform: an Ibex-class core with the UART on the
    /// legacy console window — the same machine [`Machine::new`] builds.
    fn default() -> MachineSpec {
        MachineSpec {
            core: CoreKind::Ibex,
            sram_size: None,
            intc_base: None,
            devices: vec![DeviceSpec {
                kind: "uart".to_string(),
                base: layout::CONSOLE_BASE,
                irq: Some(0),
            }],
        }
    }
}

impl MachineSpec {
    /// Parses a manifest, sniffing the format: a document whose first
    /// non-whitespace byte is `{` is JSON, anything else is TOML.
    ///
    /// # Errors
    ///
    /// Syntax errors (with line numbers for TOML), unknown keys or
    /// sections, and non-scalar values.
    pub fn parse(text: &str) -> Result<MachineSpec, ManifestError> {
        if text.trim_start().starts_with('{') {
            MachineSpec::parse_json(text)
        } else {
            MachineSpec::parse_toml(text)
        }
    }

    /// Builds the machine: core config, SRAM sizing (heap in the upper
    /// half, as [`MachineConfig::new`] lays it out), and a bus populated
    /// with exactly the declared devices.
    ///
    /// # Errors
    ///
    /// Unknown device kinds and bus conflicts (misaligned bases,
    /// overlapping windows, out-of-range IRQ lines).
    pub fn build(&self) -> Result<Machine, ManifestError> {
        let core = match self.core {
            CoreKind::Ibex => CoreModel::ibex(),
            CoreKind::Flute => CoreModel::flute(),
        };
        let mut cfg = MachineConfig::new(core);
        if let Some(sram) = self.sram_size {
            cfg.sram_size = sram;
            cfg.heap_offset = sram / 2;
            cfg.heap_size = sram / 2;
        }
        let mut m = Machine::new(cfg);
        let mut bus = DeviceBus::default();
        bus.set_intc_base(Some(self.intc_base.unwrap_or(layout::INTC_BASE)))
            .map_err(ManifestError::new)?;
        for d in &self.devices {
            let dev: Box<dyn MmioDevice> = match d.kind.as_str() {
                "uart" => Box::new(Uart::new()),
                "timer" => Box::new(LiteTimer::new()),
                "dma" => Box::new(DmaEngine::new()),
                "net" => Box::new(NetLoopback::new()),
                other => {
                    return Err(ManifestError::new(format!(
                        "unknown device kind `{other}` (expected uart, timer, dma, or net)"
                    )))
                }
            };
            bus.attach(d.base, d.irq, dev).map_err(ManifestError::new)?;
        }
        m.bus = bus;
        Ok(m)
    }

    // --- TOML ---------------------------------------------------------------

    fn parse_toml(text: &str) -> Result<MachineSpec, ManifestError> {
        enum Section {
            Top,
            Machine,
            Device,
        }
        let mut spec = MachineSpec {
            devices: Vec::new(),
            ..MachineSpec::default()
        };
        let mut section = Section::Top;
        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = match raw.split_once('#') {
                // A '#' inside a quoted string would be a comment here;
                // the manifest vocabulary has no string values containing
                // '#', so the simple split is fine.
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                match name.trim() {
                    "device" => {
                        section = Section::Device;
                        spec.devices.push(DeviceSpec::default());
                    }
                    other => return Err(ManifestError::at(n, format!("unknown table `{other}`"))),
                }
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                match name.trim() {
                    "machine" => section = Section::Machine,
                    other => {
                        return Err(ManifestError::at(n, format!("unknown section `{other}`")))
                    }
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| ManifestError::at(n, format!("expected `key = value`: `{line}`")))?;
            let (key, value) = (key.trim(), toml_scalar(value.trim()));
            let set = match section {
                Section::Top => Err(format!(
                    "key `{key}` outside a [machine] or [[device]] section"
                )),
                Section::Machine => spec.set_machine_key(key, &value),
                Section::Device => spec
                    .devices
                    .last_mut()
                    .expect("section implies a device")
                    .set_key(key, &value),
            };
            set.map_err(|e| ManifestError::at(n, e))?;
        }
        spec.validate()?;
        Ok(spec)
    }

    // --- JSON ---------------------------------------------------------------

    fn parse_json(text: &str) -> Result<MachineSpec, ManifestError> {
        let value = json::parse(text).map_err(ManifestError::new)?;
        let mut spec = MachineSpec {
            devices: Vec::new(),
            ..MachineSpec::default()
        };
        for (key, v) in json_object(&value, "manifest")? {
            match key.as_str() {
                "machine" => {
                    for (mk, mv) in json_object(v, "machine")? {
                        spec.set_machine_key(mk, mv).map_err(ManifestError::new)?;
                    }
                }
                "devices" => {
                    let Json::Arr(devices) = v else {
                        return Err(ManifestError::new("devices: expected an array"));
                    };
                    for dv in devices {
                        let mut dev = DeviceSpec::default();
                        for (dk, dvv) in json_object(dv, "device")? {
                            dev.set_key(dk, dvv).map_err(ManifestError::new)?;
                        }
                        spec.devices.push(dev);
                    }
                }
                other => return Err(ManifestError::new(format!("unknown key `{other}`"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Applies one key of the `[machine]` table / `"machine"` object.
    fn set_machine_key(&mut self, key: &str, v: &Json) -> Result<(), String> {
        match key {
            "core" => self.core = parse_core(scalar_str(v, "machine.core")?)?,
            "sram" => self.sram_size = Some(scalar_u32(v, "machine.sram")?),
            "intc" => self.intc_base = Some(scalar_u32(v, "machine.intc")?),
            other => return Err(format!("unknown machine key `{other}`")),
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), ManifestError> {
        if let Some(sram) = self.sram_size {
            // The heap is the upper half of the bank and must stay
            // granule-aligned; the bank must end below the first MMIO
            // window.
            if sram % 16 != 0 {
                return Err(ManifestError::new(format!(
                    "sram size {sram:#x} is not a multiple of 16 bytes"
                )));
            }
            if u64::from(layout::SRAM_BASE) + u64::from(sram) > u64::from(layout::REV_BITMAP_BASE) {
                return Err(ManifestError::new(format!(
                    "sram size {sram:#x} runs past the revocation bitmap at {:#x}",
                    layout::REV_BITMAP_BASE
                )));
            }
        }
        for d in &self.devices {
            if d.kind.is_empty() {
                return Err(ManifestError::new("device missing `kind`"));
            }
            if d.base == 0 {
                return Err(ManifestError::new(format!(
                    "device `{}` missing `base`",
                    d.kind
                )));
            }
        }
        Ok(())
    }
}

fn parse_core(s: &str) -> Result<CoreKind, String> {
    match s {
        "ibex" => Ok(CoreKind::Ibex),
        "flute" => Ok(CoreKind::Flute),
        other => Err(format!("unknown core `{other}` (expected ibex or flute)")),
    }
}

/// Parses a decimal or `0x`-prefixed integer (with optional `_`
/// separators, as TOML allows).
fn parse_int(s: &str) -> Result<u32, String> {
    let clean = s.replace('_', "");
    let parsed = match clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        Some(hex) => u32::from_str_radix(hex, 16),
        None => clean.parse(),
    };
    parsed.map_err(|_| format!("expected an integer, got `{s}`"))
}

/// A TOML scalar in the JSON value model: a quoted string is a string,
/// anything else is kept as number text for [`scalar_u32`].
fn toml_scalar(value: &str) -> Json {
    match value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        Some(s) => Json::Str(s.to_string()),
        None => Json::Num(value.to_string()),
    }
}

fn json_object<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], ManifestError> {
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => Err(ManifestError::new(format!("{what}: expected an object"))),
    }
}

fn scalar_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(format!("{what}: expected a string")),
    }
}

/// An integer: a number, or a string holding one (JSON has no hex
/// literals, and MMIO bases are unreadable in decimal).
fn scalar_u32(v: &Json, what: &str) -> Result<u32, String> {
    match v {
        Json::Num(text) | Json::Str(text) => parse_int(text),
        _ => Err("expected an integer".to_string()),
    }
    .map_err(|e| format!("{what}: {e}"))
}
