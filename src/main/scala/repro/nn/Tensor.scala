package repro.nn

import scala.collection.mutable

/** A dense row-major 2-D tensor of doubles.
  *
  * Gradients are NOT stored on the tensor: they live in the [[GradTape]]
  * that recorded the forward pass. An op's output carries only the id of
  * the tape that recorded it and its slot there, so that tape finds its
  * gradient by index; every other tensor (parameters, constants, outputs of
  * another tape) is a leaf, whose gradient the tape keys by identity. Those
  * two fields are written once, when the output is made, and never on a
  * parameter, so tensors stay immutable-by-convention and data-parallel
  * training stays trivial (each worker thread owns a private tape;
  * parameter gradients are summed after backward).
  *
  * A tensor may be marked [[constant]]: data, not a parameter, so that no
  * gradient of it is ever read. A [[GradTape]] records no op whose inputs
  * are all constant (its output is constant too), computes no constant
  * input's gradient, and throws when asked for a constant's gradient.
  */
final class Tensor(val rows: Int, val cols: Int, val data: Array[Double]) extends Serializable {
  require(data.length == rows * cols, s"shape ${rows}x$cols != data ${data.length}")
  /** Id of the [[GradTape]] that recorded this tensor as an op output (0: none). */
  @transient private[nn] var tapeId: Long = 0L
  /** This tensor's slot on that tape. */
  @transient private[nn] var slot: Int = -1
  private var isConstant = false
  /** Whether this tensor is marked constant; the mark is never cleared. */
  def constant: Boolean = isConstant
  /** Marks this tensor constant and returns it. */
  def markConstant(): Tensor = { isConstant = true; this }
  def apply(i: Int, j: Int): Double = data(i * cols + j)
  def size: Int = data.length
  def copyTensor(): Tensor = new Tensor(rows, cols, data.clone())

  /** A copy of row i. */
  def rowCopy(i: Int): Array[Double] = java.util.Arrays.copyOfRange(data, i * cols, (i + 1) * cols)

  /** Index in `data` of the first maximum of `data[from, until)`. The strict
    * `>` from -inf keeps the first of equal values, and `from` is returned
    * when no value beats -inf (all -inf or NaN).
    */
  def argmax(from: Int, until: Int): Int = {
    var best = from
    var bv = Double.NegativeInfinity
    var i = from
    while (i < until) { if (data(i) > bv) { bv = data(i); best = i }; i += 1 }
    best
  }
  override def toString: String = s"Tensor(${rows}x$cols)"
}

object Tensor {
  def zeros(rows: Int, cols: Int): Tensor = new Tensor(rows, cols, new Array[Double](rows * cols))
  def apply(rows: Int, cols: Int)(f: (Int, Int) => Double): Tensor = {
    val d = new Array[Double](rows * cols)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { d(i * cols + j) = f(i, j); j += 1 }; i += 1 }
    new Tensor(rows, cols, d)
  }
  def fromRows(rows: Seq[Array[Double]]): Tensor = {
    require(rows.nonEmpty)
    val c = rows.head.length
    val d = new Array[Double](rows.length * c)
    val it = rows.iterator
    var i = 0
    while (it.hasNext) { System.arraycopy(it.next(), 0, d, i * c, c); i += 1 }
    new Tensor(rows.length, c, d)
  }
  /** Glorot-uniform initialisation. */
  def glorot(rows: Int, cols: Int, rnd: scala.util.Random): Tensor = {
    val lim = math.sqrt(6.0 / (rows + cols))
    Tensor(rows, cols)((_, _) => (rnd.nextDouble() * 2 - 1) * lim)
  }
  /** Sinusoidal positional encodings (len x d), a constant. Rows are
    * computed once per width and copied out of [[posTables]].
    */
  def positional(len: Int, d: Int): Tensor = {
    var table = posTables.getOrElse(d, null)
    if (table == null || table.length < len * d) table = growPositional(len, d)
    val out = new Array[Double](len * d)
    System.arraycopy(table, 0, out, 0, out.length)
    new Tensor(len, d, out).markConstant()
  }

  /** Row-major positional rows per width. Each table is immutable once
    * published; growing one replaces it whole, so the `Trainer` pool's
    * concurrent readers never see a partly written table.
    */
  @volatile private var posTables = Map.empty[Int, Array[Double]]

  private def growPositional(len: Int, d: Int): Array[Double] = synchronized {
    val cur = posTables.getOrElse(d, Array.emptyDoubleArray)
    if (cur.length >= len * d) cur
    else {
      val rows = math.max(len, 2 * cur.length / d)
      val table = java.util.Arrays.copyOf(cur, rows * d)
      var k = cur.length
      while (k < table.length) {
        val pos = k / d; val j = k % d
        val exp = (j / 2) * 2.0 / d
        val angle = pos / math.pow(10000.0, exp)
        table(k) = if (j % 2 == 0) math.sin(angle) else math.cos(angle)
        k += 1
      }
      posTables = posTables.updated(d, table)
      table
    }
  }
}

/** Recording context for reverse-mode autodiff. [[NoTape]] disables
  * recording (inference); [[GradTape]] records and replays backward;
  * [[Scratch]] records nothing and recycles op outputs within one call.
  * Ops call `record` and `needsGrad` only on an `active` tape.
  */
trait Tape {
  def active: Boolean
  /** Whether backward computes `t`'s gradient. */
  def needsGrad(t: Tensor): Boolean
  /** Appends `f`, which adds the input gradients of the op whose output is `y`. */
  protected def push(y: Tensor, f: () => Unit): Unit
  /** Records `f` for the op whose output `y` was computed from `a`: `f`
    * adds to the gradient of each input that `needsGrad`. An op none of
    * whose inputs needs a gradient is not recorded, and its output is
    * marked constant.
    */
  final def record(y: Tensor, a: Tensor)(f: () => Unit): Unit =
    if (needsGrad(a)) push(y, f) else y.markConstant()
  /** `record` for an op of two inputs. */
  final def record(y: Tensor, a: Tensor, b: Tensor)(f: () => Unit): Unit =
    if (needsGrad(a) || needsGrad(b)) push(y, f) else y.markConstant()
  /** `record` for an op of any number of inputs. */
  final def record(y: Tensor, inputs: Seq[Tensor])(f: () => Unit): Unit =
    if (inputs.exists(needsGrad)) push(y, f) else y.markConstant()
  def grad(t: Tensor): Array[Double]
  /** A zeroed array of length `n` for an op's output or temporary: a fresh
    * one, except on a [[Scratch]].
    */
  def alloc(n: Int): Array[Double] = new Array[Double](n)
}

/** The inactive tapes' recording: there is none. */
sealed trait Inactive extends Tape {
  final val active = false
  final def needsGrad(t: Tensor): Boolean = false
  protected final def push(y: Tensor, f: () => Unit): Unit = ()
  final def grad(t: Tensor): Array[Double] =
    throw new IllegalStateException("gradients requested outside a GradTape")
}

object NoTape extends Inactive

/** Records ops in forward order and replays them backward. Recording gives
  * the op's output the next slot, so the gradient of a tensor this tape
  * recorded is an array index; only leaves go through the identity map.
  * Honours the constant mark: a constant needs no gradient, and asking for
  * one throws (a parameter marked by mistake fails in `Trainer.step`
  * instead of training at zero).
  */
final class GradTape extends Tape {
  val active = true
  private val id = GradTape.ids.incrementAndGet()
  private val ops = mutable.ArrayBuffer.empty[() => Unit]
  private val outGrads = mutable.ArrayBuffer.empty[Array[Double]]
  private val leafGrads = new java.util.IdentityHashMap[Tensor, Array[Double]]()
  def needsGrad(t: Tensor): Boolean = !t.constant
  protected def push(y: Tensor, f: () => Unit): Unit = {
    y.tapeId = id; y.slot = ops.length
    ops += f; outGrads += null
  }
  def grad(t: Tensor): Array[Double] =
    if (t.constant) throw new IllegalArgumentException(s"gradient of a constant $t requested")
    else if (t.tapeId == id) {
      var g = outGrads(t.slot)
      if (g == null) { g = new Array[Double](t.size); outGrads(t.slot) = g }
      g
    } else {
      var g = leafGrads.get(t)
      if (g == null) { g = new Array[Double](t.size); leafGrads.put(t, g) }
      g
    }
  /** Seed d(loss)/d(loss)=1 for a 1x1 loss tensor and replay the tape. */
  def backward(loss: Tensor): Unit = {
    require(loss.size == 1, s"backward needs a scalar loss, got $loss")
    grad(loss)(0) = 1.0
    var i = ops.length - 1
    while (i >= 0) { ops(i)(); i -= 1 }
  }
}

/** An inactive tape that hands out recycled arrays, for a decode loop that
  * runs many small ops per step and keeps only scalars from each step.
  * `release(mark)` takes back, zeroed, every array handed out since `mark`
  * was taken; the next `alloc`s hand them out again. A tensor over a
  * released array reads zeros from then on, so whatever a step keeps must be
  * copied out first. One call owns a `Scratch`: it is not thread-safe and
  * must not outlive that call.
  */
final class Scratch extends Inactive {
  // Arrays in the order they were handed out; slots `used` and above hold
  // released arrays, which `alloc` reuses when the length fits.
  private var arrays = new Array[Array[Double]](64)
  private var used = 0

  override def alloc(n: Int): Array[Double] = {
    if (used == arrays.length) arrays = java.util.Arrays.copyOf(arrays, 2 * used)
    var a = arrays(used)
    if (a == null || a.length != n) { a = new Array[Double](n); arrays(used) = a }
    used += 1
    a
  }

  /** Marks the arrays handed out so far as kept by `release`. */
  def mark: Int = used

  /** Zeroes and takes back every array handed out since `mark`. */
  def release(mark: Int): Unit = {
    var i = mark
    while (i < used) { java.util.Arrays.fill(arrays(i), 0.0); i += 1 }
    used = mark
  }
}

object GradTape {
  private val ids = new java.util.concurrent.atomic.AtomicLong()
}
