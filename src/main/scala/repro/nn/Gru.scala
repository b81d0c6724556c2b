package repro.nn

import scala.util.Random

/** A GRU cell (paper ref [46]) operating on 1 x d row vectors:
  *
  *   z = sigmoid(x Wz + h Uz + bz)
  *   r = sigmoid(x Wr + h Ur + br)
  *   n = tanh(x Wn + (r * h) Un + bn)
  *   h' = (1 - z) * n + z * h
  */
final class GruCell(
    val wz: Linear, val uz: Linear,
    val wr: Linear, val ur: Linear,
    val wn: Linear, val un: Linear,
) extends Module {

  def apply(x: Tensor, h: Tensor)(implicit tp: Tape): Tensor = {
    val z = Ops.sigmoid(Ops.add(wz(x), uz(h)))
    val r = Ops.sigmoid(Ops.add(wr(x), ur(h)))
    val n = Ops.tanh(Ops.add(wn(x), un(Ops.mulElem(r, h))))
    // h' = (1 - z) * n + z * h  ==  n - z*n + z*h
    Ops.add(Ops.add(n, Ops.scale(Ops.mulElem(z, n), -1.0)), Ops.mulElem(z, h))
  }

  /** Run the cell over a sequence (rows of `xs`), returning all hidden
    * states stacked (seqLen x dHidden). `h0` is 1 x dHidden.
    */
  def unroll(xs: Tensor, h0: Tensor)(implicit tp: Tape): Tensor = {
    var h = h0
    val outs = (0 until xs.rows).map { t =>
      h = apply(Ops.sliceRows(xs, t, t + 1), h)
      h
    }
    Ops.concatRows(outs)
  }

  def params: Seq[Tensor] =
    wz.params ++ uz.params ++ wr.params ++ ur.params ++ wn.params ++ un.params
}

object GruCell {
  def apply(dIn: Int, dHidden: Int, rnd: Random): GruCell =
    new GruCell(
      Linear(dIn, dHidden, rnd), Linear(dHidden, dHidden, rnd),
      Linear(dIn, dHidden, rnd), Linear(dHidden, dHidden, rnd),
      Linear(dIn, dHidden, rnd), Linear(dHidden, dHidden, rnd))
}

/** Bidirectional GRU encoder: concatenates forward and backward passes and
  * projects back to dHidden (used by the DHTR / MTrajRec-family baselines).
  */
final class BiGru(val fwd: GruCell, val bwd: GruCell, val proj: Linear) extends Module {
  def apply(xs: Tensor)(implicit tp: Tape): Tensor = {
    val d = fwd.uz.w.rows
    val h0 = Tensor.zeros(1, d).markConstant()
    val f = fwd.unroll(xs, h0)
    // Reverse rows, run, reverse back: one gather each way.
    val revIdx = Array.tabulate(xs.rows)(i => xs.rows - 1 - i)
    val bRev = bwd.unroll(Ops.rows(xs, revIdx), h0)
    val b = Ops.rows(bRev, revIdx)
    proj(Ops.concatCols(f, b))
  }
  def params: Seq[Tensor] = fwd.params ++ bwd.params ++ proj.params
}

object BiGru {
  def apply(dIn: Int, dHidden: Int, rnd: Random): BiGru =
    new BiGru(GruCell(dIn, dHidden, rnd), GruCell(dIn, dHidden, rnd),
      Linear(2 * dHidden, dHidden, rnd))
}
