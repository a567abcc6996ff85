//! Circuit (netlist) construction.
//!
//! A [`Circuit`] is a flat netlist of two- and three-terminal elements
//! connected between named nodes. Node `"0"` (also available as
//! [`Circuit::ground`]) is the reference node.
//!
//! # Examples
//!
//! ```
//! use sim_spice::{Circuit, SourceWaveform};
//!
//! # fn main() -> Result<(), sim_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! let gnd = ckt.ground();
//! ckt.add_vsource("V1", vin, gnd, SourceWaveform::Dc(1.0))?;
//! ckt.add_resistor("R1", vin, vout, 1e3)?;
//! ckt.add_resistor("R2", vout, gnd, 1e3)?;
//! let op = sim_spice::dc_operating_point(&ckt)?;
//! assert!((op.voltage(vout) - 0.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::devices::MosParams;
use crate::error::{Result, SpiceError};
use crate::source::SourceWaveform;

/// A handle to a circuit node.
///
/// Nodes are cheap copies of an index into the circuit's node table;
/// handles from one circuit must not be used with another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The reference (ground) node.
    pub const GROUND: Node = Node(0);

    /// Index of the node inside its circuit (0 is ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this handle refers to the reference node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A netlist element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Independent voltage source; `pos` is the positive terminal.
    VoltageSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        pos: Node,
        /// Negative terminal.
        neg: Node,
        /// Driving waveform.
        waveform: SourceWaveform,
    },
    /// Ideal operational amplifier (nullor): forces `v(in_pos) = v(in_neg)`
    /// by sourcing whatever current is needed at `out`.
    IdealOpAmp {
        /// Instance name.
        name: String,
        /// Non-inverting input.
        in_pos: Node,
        /// Inverting input.
        in_neg: Node,
        /// Output terminal.
        out: Node,
    },
    /// Level-1 MOSFET (drain, gate, source; bulk tied to source).
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain terminal.
        drain: Node,
        /// Gate terminal.
        gate: Node,
        /// Source terminal.
        source: Node,
        /// Model parameters.
        params: MosParams,
    },
}

impl Element {
    /// Whether the element introduces a branch-current unknown in MNA.
    pub fn needs_branch(&self) -> bool {
        matches!(self, Element::VoltageSource { .. } | Element::IdealOpAmp { .. })
    }
}

/// A flat netlist of elements between named nodes.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Node name to node index; ground is `"0"`, index 0.
    nodes: HashMap<String, usize>,
    elements: Vec<Element>,
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node `"0"`.
    pub fn new() -> Self {
        Circuit {
            nodes: HashMap::from([("0".to_string(), 0)]),
            elements: Vec::new(),
        }
    }

    /// The reference node.
    pub fn ground(&self) -> Node {
        Node::GROUND
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> Node {
        let next = self.nodes.len();
        Node(*self.nodes.entry(name.to_string()).or_insert(next))
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of elements in the netlist.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    fn check_positive(name: &str, what: &str, value: f64) -> Result<()> {
        if !(value > 0.0) || !value.is_finite() {
            return Err(SpiceError::InvalidParameter {
                what: name.to_string(),
                message: format!("{what} must be a positive finite number (got {value})"),
            });
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidParameter`] if `ohms` is not positive and finite.
    pub fn add_resistor(&mut self, name: &str, a: Node, b: Node, ohms: f64) -> Result<()> {
        Self::check_positive(name, "resistance", ohms)?;
        self.elements.push(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidParameter`] if `farads` is not positive and finite.
    pub fn add_capacitor(&mut self, name: &str, a: Node, b: Node, farads: f64) -> Result<()> {
        Self::check_positive(name, "capacitance", farads)?;
        self.elements.push(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        });
        Ok(())
    }

    /// Adds an independent voltage source.
    ///
    /// # Errors
    /// Currently infallible for all waveforms; returns `Ok(())`.
    pub fn add_vsource(&mut self, name: &str, pos: Node, neg: Node, waveform: impl Into<SourceWaveform>) -> Result<()> {
        self.elements.push(Element::VoltageSource {
            name: name.to_string(),
            pos,
            neg,
            waveform: waveform.into(),
        });
        Ok(())
    }

    /// Adds an ideal operational amplifier (nullor model).
    ///
    /// # Errors
    /// Currently infallible; returns `Ok(())`.
    pub fn add_opamp(&mut self, name: &str, in_pos: Node, in_neg: Node, out: Node) -> Result<()> {
        self.elements.push(Element::IdealOpAmp {
            name: name.to_string(),
            in_pos,
            in_neg,
            out,
        });
        Ok(())
    }

    /// Adds a level-1 MOSFET (bulk tied to source).
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidParameter`] if the model parameters are invalid.
    pub fn add_mosfet(&mut self, name: &str, drain: Node, gate: Node, source: Node, params: MosParams) -> Result<()> {
        params.validate()?;
        self.elements.push(Element::Mosfet {
            name: name.to_string(),
            drain,
            gate,
            source,
            params,
        });
        Ok(())
    }
}

/// The unknown layout used by MNA assembly: node voltages followed by
/// branch currents of the elements that require them.
#[derive(Debug, Clone)]
pub struct MnaLayout {
    /// Number of non-ground nodes.
    pub num_node_unknowns: usize,
    /// For each element (by index), the branch-current unknown index, if any.
    pub branch_of_element: Vec<Option<usize>>,
    /// Total number of unknowns (nodes + branches).
    pub total_unknowns: usize,
}

impl MnaLayout {
    /// Builds the unknown layout for a circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let num_node_unknowns = circuit.node_count() - 1;
        let mut branch_of_element = Vec::with_capacity(circuit.element_count());
        let mut next_branch = num_node_unknowns;
        for element in circuit.elements() {
            if element.needs_branch() {
                branch_of_element.push(Some(next_branch));
                next_branch += 1;
            } else {
                branch_of_element.push(None);
            }
        }
        MnaLayout {
            num_node_unknowns,
            branch_of_element,
            total_unknowns: next_branch,
        }
    }

    /// Index of the unknown associated with a node, or `None` for ground.
    pub fn node_unknown(&self, node: Node) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Reads the voltage of a node from a solution vector (0.0 for ground).
    pub fn voltage_from(&self, solution: &[f64], node: Node) -> f64 {
        match self.node_unknown(node) {
            Some(idx) => solution[idx],
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::MosParams;

    #[test]
    fn node_creation_is_idempotent() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.node_count(), 2);
    }

    #[test]
    fn ground_is_node_zero() {
        let mut ckt = Circuit::new();
        assert!(ckt.ground().is_ground());
        assert_eq!(ckt.ground().index(), 0);
        assert_eq!(ckt.node("0"), ckt.ground());
    }

    #[test]
    fn the_default_circuit_has_the_ground_node() {
        let mut ckt = Circuit::default();
        assert!(!ckt.node("a").is_ground());
        assert_eq!(ckt.node("0"), ckt.ground());
    }

    #[test]
    fn invalid_resistor_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = ckt.ground();
        assert!(ckt.add_resistor("R1", a, g, 0.0).is_err());
        assert!(ckt.add_resistor("R1", a, g, f64::NAN).is_err());
        assert!(ckt.add_resistor("R1", a, g, -5.0).is_err());
        assert!(ckt.add_resistor("R1", a, g, 1e3).is_ok());
    }

    #[test]
    fn invalid_capacitor_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = ckt.ground();
        assert!(ckt.add_capacitor("C1", a, g, -1e-9).is_err());
        assert!(ckt.add_capacitor("C1", a, g, 0.0).is_err());
    }

    #[test]
    fn layout_assigns_branches_in_order() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let g = ckt.ground();
        ckt.add_vsource("V1", a, g, 1.0).unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_opamp("U1", g, b, b).unwrap();
        let layout = MnaLayout::new(&ckt);
        assert_eq!(layout.num_node_unknowns, 2);
        assert_eq!(layout.total_unknowns, 4);
        assert_eq!(layout.branch_of_element, vec![Some(2), None, Some(3)]);
    }

    #[test]
    fn layout_node_unknowns() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let layout = MnaLayout::new(&ckt);
        assert_eq!(layout.node_unknown(ckt.ground()), None);
        assert_eq!(layout.node_unknown(a), Some(0));
        assert_eq!(layout.voltage_from(&[1.5], a), 1.5);
        assert_eq!(layout.voltage_from(&[1.5], ckt.ground()), 0.0);
    }

    #[test]
    fn element_names_and_branch_flags() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = ckt.ground();
        ckt.add_vsource("V1", a, g, 1.0).unwrap();
        ckt.add_mosfet("M1", a, a, g, MosParams::nmos_65nm(1e-6, 180e-9))
            .unwrap();
        let elems = ckt.elements();
        assert!(matches!(&elems[0], Element::VoltageSource { name, .. } if name == "V1"));
        assert!(elems[0].needs_branch());
        assert!(matches!(&elems[1], Element::Mosfet { name, .. } if name == "M1"));
        assert!(!elems[1].needs_branch());
    }

    #[test]
    fn mosfet_with_bad_params_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = ckt.ground();
        let bad = MosParams::nmos_65nm(-1.0, 180e-9);
        assert!(ckt.add_mosfet("M1", a, a, g, bad).is_err());
    }
}
